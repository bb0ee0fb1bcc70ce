"""Zero-IPC inline executor: units run in the caller, lazily.

The serial backend exists for small studies, debugging, and tests:
no process spin-up, no pickling, and lazy execution — a unit only runs
when the pool pulls its result, so a fail-fast abort never executes the
tasks behind the failure (matching the historical serial semantics of
:class:`~repro.parallel.pool.ParallelMap`).
"""

from __future__ import annotations

import traceback as _traceback
from typing import Iterable, Iterator

from ..pool import _run_batch
from .base import Executor, UnitResult, WorkUnit

__all__ = ["SerialExecutor"]


class SerialExecutor(Executor):
    """Run every unit inline, yielding results one by one."""

    name = "serial"
    inline = True

    def submit(self, units: Iterable[WorkUnit]) -> Iterator[UnitResult]:
        for unit in units:
            try:
                outcomes = _run_batch(*unit.payload)
            except Exception as exc:  # noqa: BLE001 - reported, not lost
                yield UnitResult(
                    unit=unit,
                    error=exc,
                    traceback=_traceback.format_exc(),
                )
            else:
                yield UnitResult(unit=unit, outcomes=list(outcomes))
