"""The executor protocol: transport-agnostic dispatch of work units.

:class:`~repro.parallel.pool.ParallelMap` owns execution *policy* —
batching, retries, failure policy, metrics, and the in-input-order
delivery of outcomes that checkpoint byte-identity rests on.  An
:class:`Executor` owns only *transport*: ship a picklable
:class:`WorkUnit` somewhere, run the worker entry point
:func:`~repro.parallel.pool._run_batch` on its payload, stream a
:class:`UnitResult` back.  There is one dispatch shape: a unit is one
batch of one replication group, built by :meth:`Executor.run_grouped`.
Three backends implement the seam:

* ``serial`` — inline in the caller, zero IPC (``inline = True``),
* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`,
* ``socket`` — a TCP coordinator feeding ``repro-worker`` processes on
  any number of machines.

Every backend runs the same entry point, so retry, backoff, span and
per-task attribution semantics are identical everywhere; only where the
bytes travel differs.  Results therefore cannot depend on the backend —
per-cell RNG is derived from task keys, never from execution placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..pool import TaskOutcome

__all__ = ["ExecutionSettings", "WorkUnit", "UnitResult", "Executor"]


@dataclass(frozen=True)
class ExecutionSettings:
    """Per-dispatch settings, shipped with every unit to the worker entry
    point :func:`~repro.parallel.pool._run_batch`."""

    retries: int = 0
    #: Opaque :class:`~repro.obs.spans.SpanContext` parent (or ``None``).
    span_context: Any = None


@dataclass(frozen=True)
class WorkUnit:
    """One shippable message: the arguments of one
    :func:`~repro.parallel.pool._run_batch` call.

    ``members`` lists the ``(task_index, task)`` pairs the unit covers,
    so an infrastructure failure (broken pool, dead worker, unpicklable
    payload) can still be attributed to every task it took down.
    """

    uid: int
    payload: tuple
    members: Tuple[Tuple[int, Any], ...]


@dataclass
class UnitResult:
    """What came back for one :class:`WorkUnit`.

    Either ``outcomes`` (per-task attribution, produced worker-side) or
    ``error``/``traceback`` when the unit itself failed in transit —
    the caller then synthesizes failed outcomes for every member.
    ``node`` names the worker that ran the unit, when the backend knows
    (the socket executor always does).
    """

    unit: WorkUnit
    outcomes: Optional[List[TaskOutcome]] = None
    error: Optional[BaseException] = None
    traceback: str = ""
    node: Optional[str] = None


class Executor:
    """Abstract transport backend.  Subclasses implement :meth:`submit`.

    :meth:`run_grouped` is the one dispatch method: it wraps each batch
    :class:`~repro.parallel.pool.ParallelMap` cut in a :class:`WorkUnit`
    (the arguments of one :func:`~repro.parallel.pool._run_batch` call)
    and delegates transport to
    :meth:`submit`, which yields :class:`UnitResult` records in
    **completion order** — the pool re-orders them for delivery.
    """

    #: Factory name (``make_executor`` key), e.g. ``"process"``.
    name = "base"
    #: ``True``: units run inline in the caller — no pickling, no worker
    #: spans, lazy (a unit is only executed when its result is pulled,
    #: so fail-fast stops downstream work immediately).
    inline = False

    # -- sizing ---------------------------------------------------------------
    def worker_count(self) -> int:
        """Workers currently available (1 for inline backends)."""
        return 1

    def parallelism(self) -> int:
        """Concurrency to size batches for (never less than 1)."""
        return max(1, self.worker_count())

    # -- dispatch -------------------------------------------------------------
    def run_grouped(
        self,
        fn: Callable[[Any], Any],
        batch_fn: Optional[Callable[[Sequence[Any]], Sequence[Any]]],
        batches: Sequence[Tuple[Sequence[int], Sequence[Any]]],
        settings: ExecutionSettings,
    ) -> Iterator[UnitResult]:
        """Dispatch ``(indices, batch)`` pairs through ``batch_fn``, one
        batch per message.

        The pool has already cut each replication group into batches
        small enough to spread over the workers; a batch never mixes
        groups, but a group may span several batches and workers.
        """
        units = [
            WorkUnit(
                uid=uid,
                payload=(fn, batch_fn, list(indices), list(batch), settings),
                members=tuple(zip(indices, batch)),
            )
            for uid, (indices, batch) in enumerate(batches)
        ]
        return self.submit(units)

    def submit(self, units: Iterable[WorkUnit]) -> Iterator[UnitResult]:
        """Run every unit; yield results as they complete.

        The returned iterator must tolerate early ``close()`` (the pool
        breaks out under fail-fast): pending work is cancelled or
        abandoned, never left corrupting shared state.
        """
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Release transport resources (idempotent)."""

    def drain_counters(self) -> Dict[str, float]:
        """Pop accumulated backend counters (metric name -> increment)."""
        return {}

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
