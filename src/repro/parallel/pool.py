"""Parallel execution of embarrassingly parallel experiment cells.

The paper's study is a large cross-product of independent experiments
(Section VII: ~3 million kernel samples).  Each cell is pure —
``f(task) -> result`` with reproducible per-cell RNG — so the study
parallelizes trivially.  :class:`ParallelMap` is the *policy* layer,
with one dispatch shape: :meth:`ParallelMap.run_grouped` cuts the tasks
into batches, each from one replication group and capped by count and
by cost, and every batch travels to a worker as one message
(:meth:`ParallelMap.run` is the case of one task per group).  It

* preserves input order in the output **and** in ``on_outcome`` hook
  delivery (outcomes buffer until their input-order turn), so
  checkpoint files are byte-identical across every backend and worker
  count,
* captures a **per-task outcome** (result, or exception + traceback
  string) inside the worker, so a failure is always attributed to the
  exact task that raised — never to an innocent batch-mate,
* supports two failure policies: ``"fail_fast"`` (raise
  :class:`TaskError` on the first failure) and ``"collect"`` (run every
  task to completion and report failures alongside successes), and
* optionally retries tasks that raise one of the
  :data:`DEFAULT_RETRYABLE` types, sleeping a capped exponential backoff
  (:data:`BACKOFF_S`, :data:`BACKOFF_CAP_S`) between attempts.  Only the
  number of retries is a setting.

*Transport* is delegated to a pluggable
:class:`~repro.parallel.executors.Executor` backend — ``serial``
(inline, zero IPC), ``process`` (the classic pool), or ``socket``
(multi-node via ``repro-worker``).  With no explicit backend the pool
auto-selects: inline for ``workers == 1`` or a single task, otherwise
the process pool — the historical behavior.

Per the mpi4py/HPC guidance this library follows, only picklable,
coarse-grained work units are shipped to workers; all numeric inner loops
stay vectorized inside a single process.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import time
import traceback as _traceback
from dataclasses import dataclass, field
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Sequence, Tuple,
    Type,
)

if TYPE_CHECKING:
    from .executors import ExecutionSettings

__all__ = [
    "ParallelMap",
    "TaskError",
    "TaskOutcome",
    "TaskFailure",
    "TransientError",
    "DEFAULT_RETRYABLE",
    "default_worker_count",
]

#: Default tasks per batch for :meth:`ParallelMap.run_grouped` — small
#: enough that a failed cell's retry re-runs little work, large enough
#: that batch-engine setup (landscape handles, tuner construction)
#: amortizes across a replication group.
DEFAULT_GROUP_BATCH = 64


#: Environment variable naming the node an outcome was produced on —
#: exported by ``repro-worker`` so worker-side entry points can stamp
#: outcomes and ``worker-chunk`` spans with their machine's identity.
NODE_ID_ENV = "REPRO_NODE_ID"


def default_worker_count() -> int:
    """Worker count: ``REPRO_WORKERS`` env var, else the CPU *affinity*
    mask size, else CPU count (min 1).

    The affinity mask matters in containers and batch schedulers: a CI
    job pinned to 2 of a 64-core host must not fork 64 workers —
    oversubscription there serializes through the cpuset and thrashes.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass
    return max(1, os.cpu_count() or 1)


class TransientError(RuntimeError):
    """An error the caller knows may succeed on retry (e.g. a flaky I/O
    path or an external measurement service hiccup).  Raise it to opt a
    failure into the retry-with-backoff path; :data:`DEFAULT_RETRYABLE`
    lists every type that is retried."""


#: Exception types retried when ``retries > 0``.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    TransientError,
    OSError,
    TimeoutError,
    ConnectionError,
)

#: The n-th retry of a task sleeps ``min(BACKOFF_S * 2**(n-1),
#: BACKOFF_CAP_S)`` seconds first.
BACKOFF_S = 0.05
BACKOFF_CAP_S = 2.0


class TaskError(RuntimeError):
    """A task failed; carries the offending task for diagnosis.

    ``task`` is the exact task whose function call raised (not merely the
    first task of the batch it was shipped in), ``cause`` the exception,
    and ``traceback`` the worker-side formatted traceback when the
    failure happened in a worker process.
    """

    def __init__(
        self, task: Any, cause: BaseException, traceback: str = ""
    ) -> None:
        super().__init__(f"task {task!r} failed: {cause!r}")
        self.task = task
        self.cause = cause
        self.traceback = traceback


@dataclass
class TaskOutcome:
    """What happened to one task: a result, or a captured failure.

    Outcomes are plain picklable records so workers can report failures
    without re-raising across the process boundary (which would discard
    the batch-mates' finished results).
    """

    index: int
    task: Any
    result: Any = None
    error: Optional[BaseException] = None
    error_type: str = ""
    traceback: str = ""
    #: Number of attempts made (1 = first try succeeded or no retries).
    attempts: int = 1
    #: Node that produced this outcome (``REPRO_NODE_ID``), for
    #: per-machine failure attribution under the socket executor.
    #: ``None`` for local execution.  Never written to checkpoints —
    #: checkpoint bytes must not depend on work placement.
    node: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class TaskFailure:
    """One task's failure inside a batch.

    A grouped batch function (:meth:`ParallelMap.run_grouped`) returns
    one entry per task; putting a ``TaskFailure`` in a task's slot —
    instead of raising and discarding the whole batch — attributes the
    error to exactly that task while its batch-mates' results survive.
    """

    error: BaseException
    error_type: str = ""
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "TaskFailure":
        """Capture the active exception (call from an ``except`` block)."""
        return cls(
            error=_picklable_error(exc),
            error_type=type(exc).__name__,
            traceback=_traceback.format_exc(),
        )


def _picklable_error(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # repro: noqa[REP008] pickling probe: the original exc is re-described in the stand-in, so attribution survives
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_task(
    fn: Callable[[Any], Any],
    index: int,
    task: Any,
    retries: int,
    attempt: int = 0,
    failure: Optional[TaskFailure] = None,
) -> TaskOutcome:
    """Run one task through ``fn`` until it succeeds, fails with an error
    that is not retryable, or has used ``retries`` extra attempts.

    ``attempt`` counts the attempts already spent on the task by a batch
    execution, and ``failure`` is the error the last of them left, if it
    left one.  With a ``failure``, the next try through ``fn`` follows
    the backoff sleep for attempt ``attempt``; without one, ``fn`` runs
    at once.  Attempts spent in the batch count against the retry
    budget, and :attr:`TaskOutcome.attempts` (and the
    ``task_retries_total`` counter derived from it) includes them.
    """
    while True:
        if failure is not None:
            if attempt > retries or not isinstance(
                failure.error, DEFAULT_RETRYABLE
            ):
                return TaskOutcome(
                    index=index,
                    task=task,
                    error=failure.error,
                    error_type=failure.error_type,
                    traceback=failure.traceback,
                    attempts=attempt,
                )
            time.sleep(min(BACKOFF_S * 2 ** (attempt - 1), BACKOFF_CAP_S))
        attempt += 1
        try:
            return TaskOutcome(
                index=index, task=task, result=fn(task), attempts=attempt
            )
        except Exception as exc:  # noqa: BLE001 - captured, not swallowed
            failure = TaskFailure.from_exception(exc)


def _stamp_node(outcomes: List[TaskOutcome]) -> List[TaskOutcome]:
    """Mark outcomes with this worker's node identity, when it has one."""
    node = os.environ.get(NODE_ID_ENV)
    if node:
        for outcome in outcomes:
            outcome.node = node
    return outcomes


def _span_fields(**fields: Any) -> dict:
    """``worker-chunk`` span fields, node identity included when known."""
    node = os.environ.get(NODE_ID_ENV)
    if node:
        fields["node"] = node
    return fields


def _run_batch(
    fn: Callable[[Any], Any],
    batch_fn: Optional[Callable[[Sequence[Any]], Sequence[Any]]],
    indices: Sequence[int],
    batch: Sequence[Any],
    settings: "ExecutionSettings",
) -> List[TaskOutcome]:
    """Worker entry point: one batch with per-task attribution.

    ``batch_fn`` returns one entry per task — a result, or a
    :class:`TaskFailure` recording that task's own error.  Retryable
    per-task failures re-run individually through ``fn``; a ``batch_fn``
    that raises wholesale (or returns the wrong arity) falls back to
    per-task ``fn`` execution, so a batch-engine defect can cost
    throughput but never attribution or results.  ``batch_fn=None``
    runs every task through ``fn``.  ``settings.span_context``
    (:class:`repro.obs.spans.SpanContext`) wraps the batch in a
    ``worker-chunk`` span, so the span-tree reader can attribute wall
    time to this worker process (and, under the socket executor, to its
    node).
    """
    retries = settings.retries
    scope: Any = nullcontext()
    if settings.span_context is not None:
        from ..obs.spans import child_span

        scope = child_span(
            settings.span_context,
            "worker-chunk",
            subject=f"batch of {len(batch)} tasks",
            **_span_fields(tasks=len(batch)),
        )
    with scope:
        attempt = 0
        if batch_fn is not None:
            try:
                items = batch_fn(batch)
                if len(items) != len(batch):
                    raise RuntimeError(
                        f"batch_fn returned {len(items)} entries for "
                        f"{len(batch)} tasks"
                    )
            except Exception:  # repro: noqa[REP008] engine failure falls through to per-task execution, which attributes every error
                # The batch execution counts as each task's first
                # attempt, so the fallback runs report attempts >= 2 and
                # retry metrics include the attempt the broken engine
                # consumed.
                attempt = 1
            else:
                return _stamp_node([
                    _run_task(fn, index, task, retries, 1, item)
                    if isinstance(item, TaskFailure)
                    else TaskOutcome(index=index, task=task, result=item)
                    for index, task, item in zip(indices, batch, items)
                ])
        return _stamp_node([
            _run_task(fn, index, task, retries, attempt)
            for index, task in zip(indices, batch)
        ])


class ParallelMap:
    """Order-preserving parallel dispatch of a task list.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``None`` -> :func:`default_worker_count`;
        ``1`` -> serial in-process execution (no pickling, easy debugging).
    executor:
        Transport backend: an :class:`~repro.parallel.executors.Executor`
        instance, a factory name (``"serial"``, ``"process"``,
        ``"socket"``), or ``None`` (default) for the
        historical auto-selection — inline execution when ``workers ==
        1`` or there is a single task, otherwise a process pool.  A
        passed-in instance is *not* closed by the pool (the caller owns
        its lifecycle, e.g. a socket coordinator serving a whole study);
        name-built and auto-selected backends are per-dispatch and
        closed by the pool.
    failure_policy:
        ``"fail_fast"`` (default): :meth:`run` raises :class:`TaskError`
        naming the exact failing task as soon as its failure is observed.
        ``"collect"``: every task runs to completion; failures come back
        as non-``ok`` :class:`TaskOutcome` rows.
    retries:
        Extra attempts per task for exceptions of a
        :data:`DEFAULT_RETRYABLE` type (0 = no retries), each after a
        capped exponential backoff sleep.  Other exceptions fail
        immediately.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        pool-level instrumentation, recorded parent-side as outcomes
        arrive: ``pool_tasks_total``, ``pool_task_failures_total``,
        ``task_retries_total`` counters and the ``pool_workers`` gauge.
    span_context:
        Optional :class:`repro.obs.spans.SpanContext` parent handle.
        When set, every worker-side batch execution is wrapped in
        a ``worker-chunk`` span parented on it, giving the span-tree
        reader per-worker time attribution.  ``None`` (default) emits
        nothing; the serial path never emits worker spans (there are no
        worker processes to attribute).  Assignable after construction —
        the study sets it once its experiments-phase span exists.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        failure_policy: str = "fail_fast",
        retries: int = 0,
        metrics: Optional[object] = None,
        span_context: Optional[object] = None,
        executor: Optional[object] = None,
    ) -> None:
        if failure_policy not in ("fail_fast", "collect"):
            raise ValueError(
                f"failure_policy must be 'fail_fast' or 'collect', "
                f"got {failure_policy!r}"
            )
        self.workers = default_worker_count() if workers is None else max(1, workers)
        self.executor = executor
        self.failure_policy = failure_policy
        self.retries = max(0, int(retries))
        self.metrics = metrics
        self.span_context = span_context

    # -- public API -----------------------------------------------------------
    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
    ) -> List[TaskOutcome]:
        """Apply ``fn`` to every task; outcomes in input order.

        :meth:`run_grouped` with every task its own group and no batch
        function, so each task travels as its own message: the lazy
        serial backend never runs the tasks behind a fail-fast abort,
        and each task gets its own ``worker-chunk`` span.
        """
        slot = itertools.count()
        return self.run_grouped(
            fn, None, tasks, lambda _task: next(slot), on_outcome=on_outcome
        )

    # -- execution ------------------------------------------------------------
    def _resolve_executor(self, n_tasks: int) -> Tuple[Any, bool]:
        """The transport to use and whether this dispatch owns it.

        ``executor=None`` preserves the historical auto-selection:
        inline for ``workers == 1`` or a single task (no pickling, so
        closures work), otherwise a process pool.
        """
        executor = self.executor
        if executor is None:
            from .executors import ProcessExecutor, SerialExecutor

            if self.workers == 1 or n_tasks == 1:
                return SerialExecutor(), True
            return ProcessExecutor(self.workers), True
        if isinstance(executor, str):
            from .executors import make_executor

            return make_executor(executor, workers=self.workers), True
        return executor, False

    def _settings(self, inline: bool) -> Any:
        """Dispatch settings; inline backends never emit worker spans
        (there is no worker process to attribute time to)."""
        from .executors import ExecutionSettings

        return ExecutionSettings(
            retries=self.retries,
            span_context=None if inline else self.span_context,
        )

    def _merge_counters(self, executor: Any) -> None:
        """Fold backend transport counters into the metrics registry."""
        counters = executor.drain_counters()
        if self.metrics is None or not counters:
            return
        for name, value in sorted(counters.items()):
            self.metrics.counter(
                name, help="Executor transport counter."
            ).inc(value)

    def _metered(
        self, on_outcome: Optional[Callable[[TaskOutcome], None]]
    ) -> Callable[[TaskOutcome], None]:
        """Chain pool-level metric recording in front of the user hook."""
        metrics = self.metrics

        def record(outcome: TaskOutcome) -> None:
            metrics.counter(
                "pool_tasks_total", help="Tasks finished by the pool."
            ).inc()
            if outcome.attempts > 1:
                metrics.counter(
                    "task_retries_total",
                    help="Extra attempts spent on retried tasks.",
                ).inc(outcome.attempts - 1)
            if not outcome.ok:
                metrics.counter(
                    "pool_task_failures_total",
                    help="Tasks whose final attempt raised.",
                ).inc()
            if on_outcome is not None:
                on_outcome(outcome)

        return record

    @staticmethod
    def _unit_outcomes(result: Any) -> List[TaskOutcome]:
        """Per-task outcomes for one unit result.

        A unit that failed in transit (broken pool, dead worker,
        unpicklable payload/result) has no worker-side attribution, so
        every member task is marked failed with the unit-level error.
        """
        if result.outcomes is not None:
            return result.outcomes
        exc = result.error
        return [
            TaskOutcome(
                index=index,
                task=task,
                error=exc,
                error_type=type(exc).__name__,
                traceback=result.traceback,
                node=result.node,
            )
            for index, task in result.unit.members
        ]

    def _drain_stream(
        self,
        stream: Iterator[Any],
        fail_fast: bool,
        on_outcome: Optional[Callable[[TaskOutcome], None]],
        n_tasks: int,
    ) -> List[TaskOutcome]:
        """Drain a :class:`UnitResult` stream, emitting hooks in input
        order.

        Outcomes land in their slots as units complete (any order);
        the hook fires only for the contiguous prefix of filled slots.
        Once an emitted outcome is a failure under fail-fast, it is by
        construction the lowest-index failure that will ever exist —
        every earlier slot was emitted ok — so the stream is closed
        (executors cancel or abandon pending units; the lazy serial
        backend simply never runs the rest) and :class:`TaskError` is
        raised naming exactly that task.
        """
        slots: List[Optional[TaskOutcome]] = [None] * n_tasks
        emit_ptr = 0
        failure: Optional[TaskOutcome] = None
        try:
            for result in stream:
                for outcome in self._unit_outcomes(result):
                    slots[outcome.index] = outcome
                while emit_ptr < n_tasks and slots[emit_ptr] is not None:
                    outcome = slots[emit_ptr]
                    emit_ptr += 1
                    if on_outcome is not None:
                        on_outcome(outcome)
                    if not outcome.ok and failure is None:
                        failure = outcome
                        if fail_fast:
                            break
                if fail_fast and failure is not None:
                    break
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()
        if fail_fast and failure is not None:
            raise TaskError(
                failure.task, failure.error, failure.traceback
            ) from failure.error
        # collect mode drains everything, so every slot is filled.
        return [o for o in slots if o is not None]

    # -- dispatch -------------------------------------------------------------
    def run_grouped(
        self,
        fn: Callable[[Any], Any],
        batch_fn: Optional[Callable[[Sequence[Any]], Sequence[Any]]],
        tasks: Sequence[Any],
        group_key: Callable[[Any], Any],
        on_outcome: Optional[Callable[[TaskOutcome], None]] = None,
        cost: Optional[Callable[[Any], float]] = None,
    ) -> List[TaskOutcome]:
        """Run ``tasks`` in batches of one group each, one batch per
        worker message; outcomes in input order.

        Tasks sharing a ``group_key`` are handed to ``batch_fn``
        together.  ``batch_fn(batch)`` must return one entry per task: a
        result, or a :class:`TaskFailure` for that task's own error.
        Failed tasks fall back to individual ``fn`` execution for
        retries, and a ``batch_fn`` that raises wholesale degrades the
        whole batch to per-task ``fn`` runs; ``batch_fn=None`` runs every
        task through ``fn``.

        A group splits, members in input order, into batches of at most
        :data:`DEFAULT_GROUP_BATCH` tasks.  On a non-inline executor a
        batch also holds at most ``1 / (8 * parallelism)`` of the total
        ``cost`` (``cost(task)``, default 1 per task), so the expensive
        groups spread over every worker.  Batches dispatch in input
        order.

        ``on_outcome`` is called in the parent process in **input
        order** — outcomes that complete early buffer until their turn —
        so hook-driven side effects (checkpoint lines, telemetry) are
        byte-identical across every backend and worker count.  Under
        ``"fail_fast"`` the raised :class:`TaskError` names the
        lowest-index failing task, and the hook has seen exactly the
        outcomes before it plus the failure itself.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        fail_fast = self.failure_policy == "fail_fast"
        executor, owned = self._resolve_executor(len(tasks))
        try:
            if self.metrics is not None:
                self.metrics.gauge(
                    "pool_workers",
                    help="Worker processes of the last pool run.",
                ).set(
                    executor.parallelism()
                    if self.executor is not None
                    else self.workers
                )
                on_outcome = self._metered(on_outcome)

            costs = [cost(t) for t in tasks] if cost else [1] * len(tasks)
            cap = (
                math.inf if executor.inline
                else sum(costs) / (8 * executor.parallelism())
            )
            groups: dict = {}
            for i, task in enumerate(tasks):
                groups.setdefault(group_key(task), []).append(i)
            batches: List[List[int]] = []
            for members in groups.values():
                part: List[int] = []
                part_cost = 0.0
                for i in members:
                    if part and (
                        len(part) == DEFAULT_GROUP_BATCH
                        or part_cost + costs[i] > cap
                    ):
                        batches.append(part)
                        part, part_cost = [], 0.0
                    part.append(i)
                    part_cost += costs[i]
                batches.append(part)

            stream = executor.run_grouped(
                fn, batch_fn,
                [(part, [tasks[i] for i in part]) for part in batches],
                self._settings(executor.inline),
            )
            return self._drain_stream(
                stream, fail_fast, on_outcome, len(tasks)
            )
        finally:
            self._merge_counters(executor)
            if owned:
                executor.close()
