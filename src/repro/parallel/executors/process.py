"""Single-host process-pool executor.

:class:`ProcessExecutor` is the historical ``ParallelMap`` behavior
refactored onto the :class:`~repro.parallel.executors.base.Executor`
seam: one :class:`concurrent.futures.ProcessPoolExecutor` per dispatch,
units pickled across the fork/spawn boundary, results yielded in
completion order.
"""

from __future__ import annotations

import traceback as _traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Iterable, Iterator, Optional

from ..pool import _run_batch, default_worker_count
from .base import Executor, UnitResult, WorkUnit

__all__ = ["ProcessExecutor"]


class ProcessExecutor(Executor):
    """Ship units to a per-dispatch :class:`ProcessPoolExecutor`."""

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = (
            default_worker_count() if workers is None else max(1, workers)
        )

    def worker_count(self) -> int:
        return self.workers

    def submit(self, units: Iterable[WorkUnit]) -> Iterator[UnitResult]:
        units = list(units)
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            by_future = {
                pool.submit(_run_batch, *unit.payload): unit
                for unit in units
            }
            pending = set(by_future)
            try:
                while pending:
                    done, pending = wait(
                        pending, return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        unit = by_future[fut]
                        try:
                            outcomes = fut.result()
                        except Exception as exc:  # noqa: BLE001
                            # Infrastructure failure (broken pool,
                            # unpicklable payload/result): surfaced as a
                            # unit-level error for member attribution.
                            yield UnitResult(
                                unit=unit,
                                error=exc,
                                traceback=_traceback.format_exc(),
                            )
                        else:
                            yield UnitResult(
                                unit=unit, outcomes=list(outcomes)
                            )
            finally:
                # Early generator close (fail-fast): drop queued work;
                # the pool context waits out in-flight futures.
                for fut in pending:
                    fut.cancel()

