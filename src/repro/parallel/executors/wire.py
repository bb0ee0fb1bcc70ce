"""Length-prefixed-pickle wire protocol for the socket executor.

Frames are ``b"REPX" + uint64(len) + pickle(payload)`` — big-endian,
versioned by :data:`PROTOCOL_VERSION` in the handshake rather than the
frame.  Messages are plain dicts with a ``"kind"`` key.  After the
handshake the exchange is one request and one reply: the coordinator
sends one ``unit`` and the worker answers it with one ``result`` or
``error`` before it gets the next.

* ``hello``   (worker → coordinator): ``protocol``, ``node``, ``pid``,
  ``simulator_version`` — the coordinator rejects protocol or simulator
  mismatches outright, the socket-level analogue of the landscape
  cache's fingerprint validation (a worker with a different simulator
  would silently produce different numbers).
* ``welcome`` (coordinator → worker): the (deduplicated) ``node`` name
  the coordinator will attribute this worker's outcomes to.
* ``reject``  (coordinator → worker): handshake refusal + ``reason``.
* ``unit``    (coordinator → worker): ``id``, ``entry`` (a module-level
  callable, pickled by qualified name), ``payload`` (its args — one
  replication-group batch).
* ``result`` / ``error`` (worker → coordinator): the unit's ``id`` plus
  ``outcomes`` or ``error``/``traceback``.
* ``shutdown`` (coordinator → worker): drain and exit.

Pickle is acceptable here for the same reason it is across the process
pool: both endpoints are the same trusted codebase on machines the user
controls — the coordinator binds to loopback unless told otherwise.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "WireError",
    "encode",
    "send_frame",
    "send_msg",
    "recv_msg",
]

PROTOCOL_VERSION = 2

MAGIC = b"REPX"
_HEADER = struct.Struct(">4sQ")

#: Upper bound on one frame — a runaway (or corrupt length) frame must
#: not make the receiver allocate unbounded memory.
MAX_FRAME_BYTES = 1 << 31


class WireError(ConnectionError):
    """The byte stream violated the framing protocol."""


def encode(obj: Any) -> bytes:
    """Pickle ``obj`` for the wire (raises before any bytes are sent)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def send_frame(sock: socket.socket, blob: bytes) -> None:
    if len(blob) > MAX_FRAME_BYTES:
        raise WireError(
            f"refusing to send {len(blob)} byte frame "
            f"(max {MAX_FRAME_BYTES})"
        )
    sock.sendall(_HEADER.pack(MAGIC, len(blob)) + blob)


def send_msg(sock: socket.socket, obj: Any) -> None:
    """Encode and send one message (encode errors precede any I/O)."""
    send_frame(sock, encode(obj))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on clean EOF before any byte."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise WireError(
                f"stream ended mid-frame ({len(buf)}/{n} bytes)"
            )
        buf.extend(chunk)
    return bytes(buf)


def recv_msg(sock: socket.socket) -> Optional[Any]:
    """Receive one message; ``None`` on clean end-of-stream."""
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
        )
    blob = _recv_exact(sock, length)
    if blob is None:
        raise WireError("stream ended between header and body")
    return pickle.loads(blob)
