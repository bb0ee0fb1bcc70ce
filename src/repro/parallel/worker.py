"""``repro-worker``: attach a machine to a socket-executor study.

Usage::

    repro-worker connect HOST:PORT [--node NAME] [--retry SECONDS]

The worker dials the coordinator started by
``repro-study --executor socket --bind HOST:PORT``, performs the
versioned handshake (protocol + simulator version — see
:mod:`repro.parallel.executors.wire`), then loops: receive one ``unit``
frame (one replication-group batch), run
:func:`~repro.parallel.pool._run_batch` on its payload, and answer with
one ``result`` frame carrying the per-task outcomes — or an ``error``
frame when the batch raises or its outcomes will not pickle.  It exits cleanly on the coordinator's
``shutdown`` frame or end-of-stream.

The coordinator-assigned node name is exported as ``REPRO_NODE_ID`` so
worker-side code (outcome stamping, ``worker-chunk`` spans) can
attribute work to this machine.  Landscape tables are *not* shipped
over the wire: each worker opens its own fingerprint-validated replica
through the on-disk cache (``REPRO_LANDSCAPE_CACHE`` or the task's
``landscape_cache`` path), exactly like a local pool worker.

``--retry`` keeps dialing a not-yet-listening coordinator for up to the
given number of seconds — start order stops mattering in scripts and CI.
"""

from __future__ import annotations

import argparse
import os
import socket as _socket
import sys
import time
import traceback as _traceback
from typing import List, Optional

from .blas import pin_blas_threads
from .executors.socket import parse_bind
from .executors.wire import PROTOCOL_VERSION, send_msg, recv_msg
from .pool import NODE_ID_ENV, _run_batch

__all__ = ["main", "serve"]


def _dial(host: str, port: int, retry: float) -> _socket.socket:
    deadline = time.monotonic() + max(0.0, retry)
    while True:
        try:
            return _socket.create_connection((host, port))
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


def serve(
    address: str,
    node: Optional[str] = None,
    retry: float = 0.0,
    status=None,
) -> int:
    """Connect to ``address`` and process units until shutdown.

    Returns a process exit code (0 = clean shutdown, 1 = handshake
    rejected or stream error).
    """
    from ..gpu.simulator import SIMULATOR_VERSION

    emit = status if status is not None else (lambda _line: None)
    host, port = parse_bind(address)
    sock = _dial(host, port, retry)
    try:
        send_msg(
            sock,
            {
                "kind": "hello",
                "protocol": PROTOCOL_VERSION,
                "node": node,
                "pid": os.getpid(),
                "simulator_version": int(SIMULATOR_VERSION),
            },
        )
        welcome = recv_msg(sock)
        if not isinstance(welcome, dict) or welcome.get("kind") != "welcome":
            reason = (
                welcome.get("reason", "no reason given")
                if isinstance(welcome, dict)
                else "connection closed during handshake"
            )
            emit(f"rejected by coordinator: {reason}")
            return 1
        assigned = str(welcome["node"])
        os.environ[NODE_ID_ENV] = assigned
        emit(f"connected to {host}:{port} as node {assigned!r}")
        units = 0
        while True:
            msg = recv_msg(sock)
            if msg is None or msg.get("kind") == "shutdown":
                emit(f"shutdown after {units} units")
                return 0
            if msg.get("kind") != "unit":
                emit(f"ignoring unexpected {msg.get('kind')!r} frame")
                continue
            uid = msg.get("id")
            try:
                outcomes = _run_batch(*msg["payload"])
                reply = {"kind": "result", "id": uid, "outcomes": outcomes}
                try:
                    send_msg(sock, reply)
                except (TypeError, ValueError, AttributeError) as exc:
                    # The outcomes won't pickle: report that instead of
                    # dying (which would requeue the unit onto a worker
                    # that will fail identically).
                    send_msg(
                        sock,
                        {
                            "kind": "error",
                            "id": uid,
                            "error": f"unpicklable result: {exc!r}",
                            "traceback": _traceback.format_exc(),
                        },
                    )
            except Exception as exc:  # noqa: BLE001 - reported upstream
                send_msg(
                    sock,
                    {
                        "kind": "error",
                        "id": uid,
                        "error": repr(exc),
                        "traceback": _traceback.format_exc(),
                    },
                )
            units += 1
    finally:
        sock.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description=(
            "Worker process for repro-study's socket executor: connect "
            "to a coordinator, execute study work units, stream "
            "per-task outcomes back."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    connect = sub.add_parser(
        "connect", help="attach to a coordinator and serve units"
    )
    connect.add_argument(
        "address", metavar="HOST:PORT",
        help="coordinator address (repro-study --executor socket "
             "--bind HOST:PORT prints it at startup)",
    )
    connect.add_argument(
        "--node", metavar="NAME", default=None,
        help="node name for outcome/span attribution (default: "
             "hostname-pid; deduplicated by the coordinator)",
    )
    connect.add_argument(
        "--retry", type=float, default=0.0, metavar="SECONDS",
        help="keep dialing a not-yet-listening coordinator for up to "
             "SECONDS (default 0: fail immediately)",
    )
    connect.add_argument(
        "--quiet", action="store_true",
        help="suppress status lines on stderr",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    def status(line: str) -> None:
        if not args.quiet:
            print(f"repro-worker: {line}", file=sys.stderr)

    pin_blas_threads()
    node = args.node or f"{_socket.gethostname()}-{os.getpid()}"
    try:
        return serve(
            args.address,
            node=node,
            retry=args.retry,
            status=status,
        )
    except (OSError, ConnectionError) as exc:
        print(f"repro-worker: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
