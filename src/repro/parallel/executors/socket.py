"""Multi-node socket executor: a TCP coordinator for ``repro-worker``.

The coordinator listens on ``--bind HOST:PORT`` and hands
:class:`~repro.parallel.executors.base.WorkUnit` frames to however many
workers are connected (``repro-worker connect HOST:PORT``, possibly on
other machines).  Every exchange has one shape: the coordinator sends
one ``unit`` frame — one replication-group batch — and the worker
answers it with one ``result`` or ``error`` frame carrying the unit's
id (frame kinds: :mod:`repro.parallel.executors.wire`).  Scheduling is
pull-based: each worker holds one in-flight unit and takes the next
from a shared queue the moment it answers, so heterogeneous nodes
load-balance themselves.

Elastic-worker semantics — the invariants the study relies on:

* workers may **join at any time** (the accept loop never closes while
  the executor lives); queued units start flowing to them immediately;
* a worker that **dies mid-unit**, or answers with a frame that is not
  a reply to its unit, is dropped and its in-flight unit requeued at the
  *front* of the queue (bounded by :data:`MAX_REQUEUES`, after which
  the unit is reported as an infrastructure failure) — completed units
  were already streamed back, so nothing is lost and nothing runs
  twice;
* a unit whose payload will not pickle is reported failed at once,
  since every worker would fail it identically;
* results are **attributed to a node**: every outcome carries the
  worker's (deduplicated) node name, and the handshake rejects workers
  whose protocol or simulator version differs from the coordinator's.

Because checkpoint lines are written parent-side in task-input order
(see :meth:`~repro.parallel.pool.ParallelMap`), none of this affects
study bytes: a study run over 1 worker, 16 workers, or workers that
crash halfway produces the identical checkpoint file.
"""

from __future__ import annotations

import socket as _socket
import threading
import traceback as _traceback
from collections import deque
from queue import Queue
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .base import Executor, UnitResult, WorkUnit
from .wire import PROTOCOL_VERSION, WireError, encode, recv_msg, send_frame, send_msg

__all__ = ["SocketExecutor", "parse_bind", "MAX_REQUEUES"]

#: Times one unit may be requeued after worker deaths before it is
#: reported as failed — guards against a unit that kills every worker
#: it lands on cycling forever.
MAX_REQUEUES = 3


def parse_bind(bind: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` -> ``(host, port)`` (port 0 = ephemeral)."""
    host, sep, port = bind.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bind address must be HOST:PORT, got {bind!r}"
        )
    return host, int(port)


def _coordinator_simulator_version() -> int:
    from ...gpu.simulator import SIMULATOR_VERSION

    return int(SIMULATOR_VERSION)


class SocketExecutor(Executor):
    """Length-prefixed-pickle TCP coordinator (see module docstring).

    Parameters
    ----------
    bind:
        ``HOST:PORT`` to listen on.  ``127.0.0.1:0`` (the default) binds
        an ephemeral loopback port, published via :attr:`address`.
    on_event:
        Optional sink for human-readable join/leave lines (the study
        wires its telemetry in here).
    """

    name = "socket"

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        on_event=None,
    ) -> None:
        host, port = parse_bind(bind)
        self._listener = _socket.create_server(
            (host, port), reuse_port=False
        )
        self._on_event = on_event
        self._cond = threading.Condition()
        #: node name -> connection, for shutdown fan-out.
        self._workers: Dict[str, _socket.socket] = {}
        self._taken_names: set = set()
        #: (epoch, unit) queue; epoch invalidates aborted submissions.
        self._pending: deque = deque()
        self._requeues: Dict[Tuple[int, int], int] = {}
        self._results: "Queue[Tuple[int, UnitResult]]" = Queue()
        self._epoch = 0
        self._closed = False
        self._counters: Dict[str, float] = {}
        self._sim_version = _coordinator_simulator_version()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name="repro-socket-accept",
            daemon=True,
        )
        self._accept_thread.start()

    # -- introspection --------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound ``host:port`` (ephemeral port resolved)."""
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def worker_count(self) -> int:
        with self._cond:
            return len(self._workers)

    def wait_for_workers(
        self, count: int, timeout: Optional[float] = None
    ) -> int:
        """Block until ``count`` workers are connected (or timeout).

        Returns the connected count; raises :class:`TimeoutError` when
        the deadline passes first.
        """
        with self._cond:
            ok = self._cond.wait_for(
                lambda: len(self._workers) >= count or self._closed,
                timeout=timeout,
            )
            if not ok:
                raise TimeoutError(
                    f"{len(self._workers)}/{count} workers connected "
                    f"to {self.address} after {timeout}s"
                )
            return len(self._workers)

    def drain_counters(self) -> Dict[str, float]:
        with self._cond:
            out = dict(self._counters)
            self._counters.clear()
        return out

    # -- dispatch -------------------------------------------------------------
    def submit(self, units: Iterable[WorkUnit]) -> Iterator[UnitResult]:
        units = list(units)
        with self._cond:
            if self._closed:
                raise RuntimeError("socket executor is closed")
            self._epoch += 1
            epoch = self._epoch
            for unit in units:
                self._pending.append((epoch, unit))
            self._cond.notify_all()
        remaining = len(units)
        try:
            while remaining:
                got_epoch, result = self._results.get()
                if got_epoch != epoch:
                    # Straggler from an aborted (fail-fast) submission.
                    continue
                remaining -= 1
                yield result
        finally:
            with self._cond:
                # Early close: drop this submission's queued units so
                # workers stop pulling stale work.
                self._pending = deque(
                    item for item in self._pending if item[0] != epoch
                )

    # -- worker connections ---------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_worker,
                args=(conn, addr),
                name=f"repro-socket-worker-{addr[0]}:{addr[1]}",
                daemon=True,
            ).start()

    def _handshake(self, conn, addr) -> Optional[str]:
        """Returns the worker's node name, or None on reject."""
        hello = recv_msg(conn)
        if not isinstance(hello, dict) or hello.get("kind") != "hello":
            send_msg(conn, {"kind": "reject", "reason": "expected hello"})
            return None
        if hello.get("protocol") != PROTOCOL_VERSION:
            send_msg(
                conn,
                {
                    "kind": "reject",
                    "reason": (
                        f"protocol {hello.get('protocol')!r} != "
                        f"coordinator {PROTOCOL_VERSION}"
                    ),
                },
            )
            return None
        theirs = hello.get("simulator_version")
        if theirs != self._sim_version:
            # A worker simulating different physics would stream
            # plausible-looking but non-reproducible numbers — refuse,
            # like the landscape cache refuses a stale fingerprint.
            send_msg(
                conn,
                {
                    "kind": "reject",
                    "reason": (
                        f"simulator version {theirs!r} != coordinator "
                        f"{self._sim_version}"
                    ),
                },
            )
            return None
        wanted = str(hello.get("node") or f"{addr[0]}:{addr[1]}")
        with self._cond:
            node = wanted
            suffix = 2
            while node in self._taken_names:
                node = f"{wanted}#{suffix}"
                suffix += 1
            self._taken_names.add(node)
        send_msg(conn, {"kind": "welcome", "node": node})
        return node

    def _count(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def _event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def _reply_result(self, conn, node, unit: WorkUnit) -> UnitResult:
        """Receive the worker's reply to ``unit``.

        Anything but a ``result``/``error`` frame carrying ``unit``'s id
        raises :class:`WireError`, which drops the worker and requeues
        the unit.
        """
        reply = recv_msg(conn)
        if reply is None:
            raise WireError(f"worker {node!r} vanished mid-unit")
        kind = reply.get("kind")
        if kind not in ("result", "error"):
            raise WireError(
                f"worker {node!r} sent unexpected {kind!r} frame"
            )
        if reply.get("id") != unit.uid:
            raise WireError(
                f"worker {node!r} answered unit {reply.get('id')!r}, "
                f"expected {unit.uid!r}"
            )
        if kind == "result":
            return UnitResult(
                unit=unit, outcomes=list(reply["outcomes"]), node=node
            )
        return UnitResult(
            unit=unit,
            error=RuntimeError(str(reply.get("error", "worker error"))),
            traceback=str(reply.get("traceback", "")),
            node=node,
        )

    def _serve_worker(self, conn, addr) -> None:
        try:
            node = self._handshake(conn, addr)
        except Exception:  # repro: noqa[REP008] a malformed client at handshake has no task to attribute a failure to; the connection is simply dropped
            conn.close()
            return
        if node is None:
            conn.close()
            return
        with self._cond:
            self._workers[node] = conn
            self._count("executor_workers_joined_total")
            self._cond.notify_all()
        self._event(
            f"worker {node!r} joined ({len(self._workers)} connected)"
        )
        item: Optional[Tuple[int, WorkUnit]] = None
        try:
            while True:
                with self._cond:
                    while not self._pending and not self._closed:
                        self._cond.wait()
                    if self._closed:
                        return
                    item = self._pending.popleft()
                epoch, unit = item
                try:
                    blob = encode(
                        {
                            "kind": "unit",
                            "id": unit.uid,
                            "payload": unit.payload,
                        }
                    )
                except Exception as exc:  # noqa: BLE001
                    # The payload itself won't pickle: requeueing would
                    # fail identically on every worker, so report the
                    # infrastructure failure and move on.
                    result = UnitResult(
                        unit=unit,
                        error=exc,
                        traceback=_traceback.format_exc(),
                        node=node,
                    )
                else:
                    send_frame(conn, blob)
                    result = self._reply_result(conn, node, unit)
                item = None
                self._results.put((epoch, result))
        except Exception as exc:  # noqa: BLE001 - worker loss is survivable
            if item is not None:
                self._requeue(item, exc)
        finally:
            with self._cond:
                if self._workers.pop(node, None) is not None and (
                    not self._closed
                ):
                    self._count("executor_workers_left_total")
                # Release the name so a restarted worker reclaims it.
                self._taken_names.discard(node)
                self._cond.notify_all()
            try:
                conn.close()
            except OSError:
                pass
            if not self._closed:
                self._event(
                    f"worker {node!r} left "
                    f"({len(self._workers)} connected)"
                )

    def _requeue(
        self, item: Tuple[int, WorkUnit], exc: BaseException
    ) -> None:
        epoch, unit = item
        key = (epoch, unit.uid)
        with self._cond:
            self._requeues[key] = self._requeues.get(key, 0) + 1
            if self._requeues[key] <= MAX_REQUEUES:
                # Front of the queue: the interrupted unit is the oldest
                # outstanding work, so it should complete first.
                self._pending.appendleft(item)
                self._count("executor_units_requeued_total")
                self._cond.notify_all()
                return
        self._results.put(
            (
                epoch,
                UnitResult(
                    unit=unit,
                    error=RuntimeError(
                        f"unit {unit.uid} abandoned after "
                        f"{MAX_REQUEUES} worker failures: {exc!r}"
                    ),
                    traceback=_traceback.format_exc(),
                ),
            )
        )

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers.values())
            self._cond.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in workers:
            try:
                send_msg(conn, {"kind": "shutdown"})
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
