"""Pluggable executor backends for :class:`~repro.parallel.ParallelMap`.

One factory, three transports::

    make_executor("serial")                  # inline, zero IPC
    make_executor("process", workers=8)      # the classic process pool
    make_executor("socket", bind="0.0.0.0:7071")  # multi-node

See :mod:`repro.parallel.executors.base` for the protocol and
:mod:`repro.parallel.worker` for the ``repro-worker`` CLI that feeds
the socket backend.
"""

from __future__ import annotations

from typing import Optional

from .base import ExecutionSettings, Executor, UnitResult, WorkUnit
from .process import ProcessExecutor
from .serial import SerialExecutor
from .socket import SocketExecutor

__all__ = [
    "EXECUTOR_NAMES",
    "make_executor",
    "Executor",
    "ExecutionSettings",
    "WorkUnit",
    "UnitResult",
    "SerialExecutor",
    "ProcessExecutor",
    "SocketExecutor",
]

#: Factory-recognized backend names, in cost order.
EXECUTOR_NAMES = ("serial", "process", "socket")


def make_executor(
    name: str,
    workers: Optional[int] = None,
    bind: Optional[str] = None,
    on_event=None,
) -> Executor:
    """Build a backend by name.

    ``workers`` sizes the process pool (``None`` = CPU count,
    affinity-aware); ``bind`` and ``on_event`` apply to the socket
    coordinator only.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "process":
        return ProcessExecutor(workers)
    if name == "socket":
        return SocketExecutor(
            bind=bind or "127.0.0.1:0", on_event=on_event
        )
    raise ValueError(
        f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}"
    )
