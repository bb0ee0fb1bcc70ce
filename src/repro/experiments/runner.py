"""Single-experiment execution — the paper's measurement pipeline (Fig. 1).

One *experiment* is: give one algorithm a budget of S kernel measurements
on one (kernel, architecture) landscape, take its chosen configuration,
and re-evaluate that configuration ``final_repeats`` (10) times "to
compensate for runtime variance" (Section VI-A).  The mean of those
repeats is the experiment's reported result.

Everything here is a module-level function over a frozen, picklable
:class:`ExperimentTask`, so the study orchestrator can fan experiments out
across processes — or across machines via the socket executor's
``repro-worker`` processes, each opening its own fingerprint-validated
landscape-table replica; per-experiment RNG streams are derived from the
task's own key, making results independent of execution order, worker
count, and work placement.

Replications of the same study cell (tasks identical except for their
``experiment`` index and dataset rows) additionally batch:
:func:`run_experiment_batch` executes a whole replication group at once,
sharing the kernel/space/landscape setup across the group.  A Random
Search group (a dataset tuner with no live reserve) needs no search:
the runner reduces its stacked dataset rows with
:func:`~repro.search.base.best_of_rows` and resolves the chosen
configurations for their final repeats in one pass.
Every other group steps its cells in lockstep, since every tuner's
search is a :data:`~repro.search.Stepper` over an objective that
already holds the cell's dataset rows: each round resolves every cell's
next request (a GA generation, a BO proposal, RF's top-k stage) in one
table gather or one simulator pass, and each cell then measures its own
slice.  Results are bit-identical to :func:`run_experiment` per task:
every replication keeps its own ``cell_key``-derived RNG streams, so
nothing about grouping leaks into the numbers.  The study dispatches
every replication group through it; :func:`run_experiment`, a lockstep
group of one, is the pool's per-task retry and fallback path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..gpu.arch import get_architecture
from ..gpu.device import SimulatedDevice, resolve_together
from ..gpu.noise import DEFAULT_NOISE, NoiseModel
from ..kernels import get_kernel
from ..obs import NULL_TRACER, MetricsRegistry, tracer_for_dir
from ..obs.spans import SpanContext, SpanScope
from ..parallel.pool import TaskFailure
from ..parallel.rng import RngFactory
from ..search import (
    DatasetTuner,
    Objective,
    best_of_rows,
    best_so_far,
    make_tuner,
    run_to_end,
)
from ..gpu.landscape import load_or_compute_landscape
from .results import ExperimentResult

__all__ = [
    "ExperimentTask",
    "run_experiment",
    "run_experiment_batch",
    "batch_group_key",
    "NonFiniteResultError",
    "InjectedFailure",
]

#: Comma-separated cell keys that :func:`run_experiment` fails on sight —
#: a fault-injection hook for exercising the study's failure paths end to
#: end (checkpointing, failure collection, retry) in tests and drills.
FAIL_CELLS_ENV = "REPRO_FAIL_CELLS"


class NonFiniteResultError(RuntimeError):
    """The experiment's chosen configuration produced a non-finite runtime.

    A tuner can select a ``best_config`` that fails to launch on the
    (simulated) device, yielding ``inf``/``nan`` final runtimes.  Left in
    the results, these poison downstream statistics (``cles_greater``
    rejects non-finite samples during figure generation) — so the cell is
    failed here, at measurement time, with an actionable message.
    """


class InjectedFailure(RuntimeError):
    """Deliberate failure requested via the ``REPRO_FAIL_CELLS`` hook."""


def _injected_failure_check(cell_key: str) -> None:
    spec = os.environ.get(FAIL_CELLS_ENV)
    if spec and cell_key in {k.strip() for k in spec.split(",")}:
        raise InjectedFailure(
            f"injected failure for cell {cell_key} ({FAIL_CELLS_ENV})"
        )


@dataclass(frozen=True)
class ExperimentTask:
    """Everything one experiment needs, picklable for process fan-out."""

    algorithm: str
    kernel: str
    arch: str
    sample_size: int
    experiment: int
    root_seed: int
    image_x: int = 8192
    image_y: int = 8192
    final_repeats: int = 10
    noise: NoiseModel = DEFAULT_NOISE
    #: (flats, runtimes) slice for non-SMBO tuners; None for live tuners.
    dataset_flats: Optional[Tuple[int, ...]] = None
    dataset_runtimes: Optional[Tuple[float, ...]] = None
    #: Constructor overrides for the tuner (ablations).
    tuner_kwargs: tuple = ()  # of (key, value) pairs, hashable
    #: Trace directory for trajectory events (None disables tracing).
    #: A string (not Path) so tasks stay cheaply picklable; each worker
    #: process appends to its own ``trace-<pid>.jsonl`` inside it.
    trace_dir: Optional[str] = None
    #: Landscape-table cache directory.  When set, the worker memory-maps
    #: the precomputed noise-free runtime table for this task's
    #: (kernel, arch) pair — one simulator pass per landscape study-wide,
    #: shared read-only pages across the process pool — and every
    #: measurement becomes a table lookup.  A string for picklability.
    landscape_cache: Optional[str] = None
    #: What the trace stream records when ``trace_dir`` is set:
    #: ``"spans"`` — hierarchical spans only (cheap enough to leave the
    #: vectorized batch paths enabled); ``"full"`` (default) — spans
    #: plus trajectory events.
    trace_level: str = "full"
    #: Parent span for this cell's span, propagated by value from the
    #: study process (see :mod:`repro.obs.spans`).  Frozen/hashable so
    #: grouped dispatch can key on it.
    span_parent: Optional[SpanContext] = None

    @property
    def cell_key(self) -> str:
        return (
            f"{self.algorithm}/{self.kernel}/{self.arch}/"
            f"{self.sample_size}/{self.experiment}"
        )


def batch_group_key(task: ExperimentTask) -> tuple:
    """Replication-group key: everything except the ``experiment`` index
    (and the per-replication dataset rows that vary with it).

    Tasks sharing this key run the same algorithm on the same landscape
    with the same budget — exactly the population the batched engine can
    execute together.
    """
    return (
        task.algorithm,
        task.kernel,
        task.arch,
        task.sample_size,
        task.root_seed,
        task.image_x,
        task.image_y,
        task.final_repeats,
        task.noise,
        task.tuner_kwargs,
        task.trace_dir,
        task.landscape_cache,
        task.trace_level,
        task.span_parent,
    )


#: A replication group steps in lockstep in slices of at most
#: ``LOCKSTEP_CELLS`` cells and ``LOCKSTEP_ROWS`` budget rows (cells
#: times S), one pass per slice and round.  Each stepping cell holds its
#: search state (population, cache, history, RNG streams) until it
#: ends, so the two bound what lockstep adds to peak memory.
LOCKSTEP_CELLS = 16
LOCKSTEP_ROWS = 1600


def _events_enabled(task: ExperimentTask) -> bool:
    return task.trace_dir is not None and task.trace_level == "full"


@dataclass
class _CellContext:
    """Per-(kernel, arch) setup shared across a replication group."""

    kernel: object
    profile: object
    space: object
    arch: object
    table: object


def _context_for(task: ExperimentTask) -> _CellContext:
    kernel = get_kernel(task.kernel, task.image_x, task.image_y)
    profile = kernel.profile()
    space = kernel.space()
    arch = get_architecture(task.arch)
    table = (
        load_or_compute_landscape(
            profile, arch, space, cache_dir=task.landscape_cache
        )
        if task.landscape_cache is not None
        else None
    )
    return _CellContext(
        kernel=kernel, profile=profile, space=space, arch=arch, table=table
    )


def run_experiment(task: ExperimentTask) -> ExperimentResult:
    """Execute one experiment end-to-end (search + final re-evaluation).

    Raises :class:`NonFiniteResultError` if the chosen configuration's
    final re-evaluation is non-finite (a failed launch), so the study
    layer records a failed cell instead of propagating ``inf`` into the
    statistics.
    """
    if task.trace_dir is not None:
        with _cell_span(task):
            return _run_cell(task, _context_for(task))
    return _run_cell(task, _context_for(task))


def _cell_span(
    task: ExperimentTask, parent: Optional[SpanContext] = None
) -> SpanScope:
    """Span covering one cell's full execution (setup + search + finals)."""
    return SpanScope(
        task.trace_dir,
        "cell",
        subject=task.cell_key,
        parent=parent if parent is not None else task.span_parent,
    )


def _run_cell(task: ExperimentTask, ctx: _CellContext) -> ExperimentResult:
    """One experiment alone against a pre-built cell context: a lockstep
    group of one, whose device resolves each request as it measures it.
    """
    return run_to_end(_cell_steps(task, ctx, _cell_device(task, ctx)))


def _cell_steps(
    task: ExperimentTask, ctx: _CellContext, device: SimulatedDevice
) -> Generator[List[int], None, ExperimentResult]:
    """One experiment as a generator that returns its result.

    The cell yields each request's affordable prefix before measuring
    it on ``device`` (see :func:`~repro.search.base.measure_steps`), so
    the lockstep loop can resolve it together with sibling cells'
    requests.  A dataset tuner's objective holds the task's dataset
    rows before the search starts.
    """
    _injected_failure_check(task.cell_key)
    space = ctx.space

    search_rng = RngFactory(task.root_seed).stream_for(
        task.cell_key + "/search"
    )
    tuner = make_tuner(task.algorithm, **dict(task.tuner_kwargs))

    cell = task.cell_key
    tracer = (
        tracer_for_dir(task.trace_dir)
        if _events_enabled(task)
        else NULL_TRACER
    )
    registry = MetricsRegistry()
    objective = Objective(
        space,
        None,
        budget=task.sample_size,
        tracer=tracer,
        metrics=registry,
        cell=cell,
        measure_flats=device.measure_flats_each,
    )
    if isinstance(tuner, DatasetTuner):
        n_train = _training_rows(task, tuner.live_reserve())
        objective.record_dataset(
            task.dataset_flats[:n_train], task.dataset_runtimes[:n_train]
        )
    result = yield from tuner.run_steps(objective, search_rng)

    best_flat = space.config_to_flat(result.best_config)
    experiment = _finish_cell(
        registry.flat_counters(),
        task,
        ctx,
        device,
        best_flat,
        result.history_runtimes,
        result.best_runtime_ms,
    )
    if tracer.enabled:
        tracer.event(
            "experiment_end",
            cell=cell,
            final_runtime_ms=experiment.final_runtime_ms,
            samples_used=int(result.samples_used),
            best_flat=best_flat,
        )
    return experiment


def _cell_device(task: ExperimentTask, ctx: _CellContext) -> SimulatedDevice:
    """The cell's device, its noise drawn from a stream derived from the
    cell key alone."""
    return SimulatedDevice(
        ctx.arch,
        ctx.profile,
        noise=task.noise,
        rng=RngFactory(task.root_seed).stream_for(task.cell_key + "/device"),
        table=ctx.table,
    )


def _training_rows(task: ExperimentTask, reserve: int) -> int:
    """Check a dataset tuner's payload; return how many of its rows the
    tuner trains on (the rest of its budget is ``reserve`` live runs).

    Raises the ``ValueError`` the cell reports for a missing or
    mis-sized payload, or for a budget the live reserve uses up.
    """
    flats, runtimes = task.dataset_flats, task.dataset_runtimes
    if flats is None or runtimes is None:
        raise ValueError(
            f"{task.algorithm} is a dataset (non-SMBO) tuner; the task "
            f"must carry a dataset slice"
        )
    if len(flats) != len(runtimes):
        raise ValueError("flats/runtimes shape mismatch")
    if len(flats) != task.sample_size:
        raise ValueError(
            f"dataset slice has {len(flats)} rows, expected "
            f"sample_size={task.sample_size}"
        )
    n_train = task.sample_size - reserve
    if n_train < 1:
        raise ValueError(
            f"sample size {task.sample_size} too small for "
            f"{task.algorithm} (reserves {reserve} live runs)"
        )
    return n_train


def _finish_cell(
    metrics: Dict[str, float],
    task: ExperimentTask,
    ctx: _CellContext,
    device: SimulatedDevice,
    best_flat: int,
    history,
    observed_best_ms: float,
) -> ExperimentResult:
    """End one experiment (Section VI-A): the chosen configuration runs
    ``final_repeats`` more times and the mean is the reported outcome.

    ``metrics`` holds the search's own counters; the four cell counters
    are added after them, so every route writes its metric keys in the
    same order.  The convergence curve comes from the full evaluation
    ``history`` (dataset rows included; one row per sample used), so
    every technique gets one;
    :func:`best_so_far` builds it, so a result holds one float object
    per improvement rather than one per evaluation.

    Raises :class:`NonFiniteResultError` when the final runtime is
    non-finite (the configuration fails to launch).
    """
    finals = device.measure_flat_repeated(best_flat, task.final_repeats)
    final_ms = float(np.mean(finals))
    if not np.isfinite(final_ms):
        raise NonFiniteResultError(
            f"cell {task.cell_key}: chosen configuration "
            f"{ctx.space.flat_to_config(best_flat)!r} produced a "
            f"non-finite final runtime ({final_ms} ms over "
            f"{task.final_repeats} repeats) — the configuration likely "
            f"fails to launch on {task.arch}"
        )
    history = np.asarray(history, dtype=np.float64)
    metrics["evaluations_total"] = float(history.size)
    metrics["launch_failures_total"] = float(
        np.count_nonzero(~np.isfinite(history))
    )
    metrics["device_launches_total"] = float(device.launches)
    metrics["final_repeats_total"] = float(task.final_repeats)
    return ExperimentResult(
        algorithm=task.algorithm,
        kernel=task.kernel,
        arch=task.arch,
        sample_size=task.sample_size,
        experiment=task.experiment,
        final_runtime_ms=final_ms,
        best_flat=best_flat,
        observed_best_ms=float(observed_best_ms),
        samples_used=int(history.size),
        convergence=best_so_far(history.tolist()),
        metrics=metrics,
    )


# -- batched replication engine ------------------------------------------------

BatchItem = Union[ExperimentResult, TaskFailure]


def run_experiment_batch(tasks: Sequence[ExperimentTask]) -> List[BatchItem]:
    """Execute a replication group, one entry (result or
    :class:`~repro.parallel.TaskFailure`) per task, in task order.

    This is the ``batch_fn`` for
    :meth:`~repro.parallel.ParallelMap.run_grouped`: tasks should share a
    :func:`batch_group_key`, though mixed input is handled by splitting
    into sub-groups.  Per task, the outcome is bit-identical to
    :func:`run_experiment` — the group only shares read-only setup
    (kernel, space, landscape table, vectorized dataset decode), never
    RNG state.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    slots: List[Optional[BatchItem]] = [None] * len(tasks)
    groups: Dict[tuple, List[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault(batch_group_key(task), []).append(i)
    for positions in groups.values():
        for pos, item in zip(
            positions, _run_group([tasks[p] for p in positions])
        ):
            slots[pos] = item
    return slots  # type: ignore[return-value]


def _run_group(tasks: List[ExperimentTask]) -> List[BatchItem]:
    """One homogeneous replication group -> per-task results/failures."""
    first = tasks[0]
    if first.trace_dir is not None:
        # The group key drops the per-replication experiment index.
        subject = (
            f"{first.algorithm}/{first.kernel}/{first.arch}/"
            f"{first.sample_size}"
        )
        with SpanScope(
            first.trace_dir,
            "replication-group",
            subject=subject,
            parent=first.span_parent,
            fields={"tasks": len(tasks)},
        ) as group_ctx:
            return _run_group_inner(tasks, first, group_ctx)
    return _run_group_inner(tasks, first, None)


def _run_group_inner(
    tasks: List[ExperimentTask],
    first: ExperimentTask,
    group_ctx: Optional[SpanContext],
) -> List[BatchItem]:
    try:
        ctx = _context_for(first)
        tuner = make_tuner(first.algorithm, **dict(first.tuner_kwargs))
    except Exception as exc:  # noqa: BLE001 - shared setup failed
        # Every task in the group would fail identically; attribute the
        # same captured error to each so none is blamed for a sibling's.
        failure = TaskFailure.from_exception(exc)
        return [failure for _ in tasks]

    # Spans-only tracing keeps the vectorized reduction: spans need no
    # per-evaluate events, so group-level work stays collapsed.
    if (
        isinstance(tuner, DatasetTuner)
        and tuner.live_reserve() == 0
        and not _events_enabled(first)
    ):
        try:
            for task in tasks:
                _training_rows(task, 0)
        except ValueError:
            pass  # each bad cell raises it again on the per-cell path
        else:
            return _run_dataset_batch(tasks, ctx)

    # Lockstep path against the shared context.  Trajectory events are
    # written as they happen, so under full tracing each cell steps
    # alone and the trace keeps per-task order.
    width = (
        1
        if _events_enabled(first)
        else max(1, min(LOCKSTEP_CELLS, LOCKSTEP_ROWS // first.sample_size))
    )
    out: List[BatchItem] = []
    for start in range(0, len(tasks), width):
        out.extend(
            _run_lockstep(tasks[start : start + width], ctx, group_ctx)
        )
    return out


def _run_lockstep(
    tasks: List[ExperimentTask],
    ctx: _CellContext,
    group_ctx: Optional[SpanContext],
) -> List[BatchItem]:
    """Step the cells of ``tasks`` together (a slice of a replication
    group): one result or :class:`~repro.parallel.TaskFailure` per
    cell, in order.

    Each round advances every live cell to its next request (in cell
    order), then resolves all the round's requests with one table
    gather or one simulator pass (:func:`resolve_together`); each cell
    measures its own request on its own device and noise stream in the
    next round.  A cell that raises fails alone, and its siblings step
    on.  With spans on, each cell's ``cell`` span runs from its set-up
    to its final repeats, so a group's cell spans overlap.
    """
    spans_on = tasks[0].trace_dir is not None
    out: List[Optional[BatchItem]] = [None] * len(tasks)
    # position -> (the cell's steps, its device)
    live = {}
    for i, task in enumerate(tasks):
        device = _cell_device(task, ctx)
        steps = _cell_steps(task, ctx, device)
        if spans_on:
            steps = _in_span(steps, _cell_span(task, parent=group_ctx))
        live[i] = (steps, device)
    while live:
        devices, requests = [], []
        for i, (steps, device) in list(live.items()):
            try:
                requests.append(next(steps))
                devices.append(device)
            except StopIteration as stop:
                out[i] = stop.value
                del live[i]
            except Exception as exc:  # noqa: BLE001 - per-task attribution
                out[i] = TaskFailure.from_exception(exc)
                del live[i]
        resolve_together(devices, requests)
    return out  # type: ignore[return-value]


def _in_span(steps: Generator, scope: SpanScope) -> Generator:
    """``steps`` with ``scope`` open from its first step to its end."""
    with scope:
        return (yield from steps)


def _run_dataset_batch(
    tasks: List[ExperimentTask], ctx: _CellContext
) -> List[BatchItem]:
    """A replication group of a dataset tuner that reserves no live
    runs, as array work; the tasks' payloads passed
    :func:`_training_rows`.

    Such a tuner's stepper asks for nothing once the objective holds
    the dataset rows, so each cell's result is the best of its rows:
    one :func:`best_of_rows` over the group's stacked ``(n, S)`` rows.
    """
    flats = np.array([task.dataset_flats for task in tasks], dtype=np.int64)
    runtimes = np.array(
        [task.dataset_runtimes for task in tasks], dtype=np.float64
    )
    best, best_ms = best_of_rows(runtimes)
    best_flats = flats[np.arange(len(tasks)), best].tolist()

    # The "/search" stream is never drawn from by a zero-reserve dataset
    # tuner, so only the devices' are created.  The group's chosen flats
    # are resolved together, so the final repeats make no further pass.
    devices = [_cell_device(task, ctx) for task in tasks]
    resolve_together(devices, [[flat] for flat in best_flats])
    out: List[BatchItem] = []
    for i, task in enumerate(tasks):
        try:
            _injected_failure_check(task.cell_key)
            out.append(
                _finish_cell(
                    {},
                    task,
                    ctx,
                    devices[i],
                    best_flats[i],
                    runtimes[i],
                    best_ms[i],
                )
            )
        except (InjectedFailure, NonFiniteResultError) as exc:
            out.append(TaskFailure.from_exception(exc))
    return out
