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
sharing the kernel/space/landscape setup and the dataset decode across
the group — and, for tuners implementing
:meth:`~repro.search.Tuner.tune_batch` (Random Search), collapsing the
entire group into vectorized array work.  Results are bit-identical to
:func:`run_experiment` per task: every replication keeps its own
``cell_key``-derived RNG streams, so nothing about grouping leaks into
the numbers.  The study dispatches every replication group through it;
:func:`run_experiment` is the pool's per-task retry and fallback path.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..gpu.arch import get_architecture
from ..gpu.device import SimulatedDevice
from ..gpu.noise import DEFAULT_NOISE, NoiseModel
from ..kernels import get_kernel
from ..obs import NULL_TRACER, MetricsRegistry, tracer_for_dir
from ..obs.spans import SpanContext, SpanScope, child_span
from ..parallel.pool import TaskFailure
from ..parallel.rng import RngFactory
from ..search import (
    DatasetBatch,
    DatasetTuner,
    Objective,
    best_so_far,
    make_tuner,
    trace_dataset_rows,
)
from ..gpu.landscape import load_or_compute_landscape
from .dataset import PrecollectedDataset
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


def _run_cell(
    task: ExperimentTask,
    ctx: _CellContext,
    train_configs: Optional[List[dict]] = None,
    train_features: Optional[np.ndarray] = None,
) -> ExperimentResult:
    """One experiment against a pre-built cell context.

    ``train_configs``/``train_features`` optionally carry the decoded
    dataset slice when the caller (the batched engine) already decoded
    the whole replication group in one vectorized pass; they must match
    the task's first ``sample_size - live_reserve`` dataset rows.
    """
    _injected_failure_check(task.cell_key)
    space = ctx.space

    device = _cell_device(task, ctx)
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

    if isinstance(tuner, DatasetTuner):
        reserve = tuner.live_reserve()
        n_train = _training_rows(task, reserve)
        train = PrecollectedDataset(
            flats=np.asarray(task.dataset_flats, dtype=np.int64),
            runtimes_ms=np.asarray(task.dataset_runtimes, dtype=np.float64),
        ).slice_for(n_train, 0)
        if train_configs is None:
            train_configs = train.configs(space)
        dataset_best = math.inf
        if tracer.enabled:
            tracer.event(
                "tuner_start",
                cell=cell,
                algorithm=task.algorithm,
                budget=task.sample_size,
            )
            # Replay the pre-collected rows so the per-cell trace holds
            # exactly sample_size evaluate events for every technique.
            dataset_best = trace_dataset_rows(
                tracer, cell, train_configs, train.runtimes_ms
            )
        objective = (
            Objective(
                space,
                None,
                budget=reserve,
                tracer=tracer,
                metrics=registry,
                cell=cell,
                index_base=n_train,
                initial_best_ms=dataset_best,
                measure_flats=device.measure_flats_each,
            )
            if reserve > 0
            else None
        )
        result = tuner.tune_from_dataset(
            space,
            train_configs,
            train.runtimes_ms,
            objective,
            search_rng,
            train_features=train_features,
        )
        if tracer.enabled:
            tracer.event(
                "tuner_end",
                cell=cell,
                samples_used=int(result.samples_used),
                best_ms=float(result.best_runtime_ms),
            )
    else:
        objective = Objective(
            space,
            None,
            budget=task.sample_size,
            tracer=tracer,
            metrics=registry,
            cell=cell,
            measure_flats=device.measure_flats_each,
        )
        result = tuner.run(objective, search_rng)

    best_flat = space.config_to_flat(result.best_config)
    experiment = _finish_cell(
        registry.flat_counters(),
        task,
        ctx,
        device,
        best_flat,
        result.history_runtimes,
        result.samples_used,
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
    samples_used: int,
    observed_best_ms: float,
) -> ExperimentResult:
    """End one experiment (Section VI-A): the chosen configuration runs
    ``final_repeats`` more times and the mean is the reported outcome.

    ``metrics`` holds the search's own counters; the four cell counters
    are added after them, so every route writes its metric keys in the
    same order.  The convergence curve comes from the full evaluation
    ``history`` (dataset rows included), so every technique gets one;
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
    metrics["evaluations_total"] = float(samples_used)
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
        samples_used=int(samples_used),
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

    shared: Dict[int, tuple] = {}
    if isinstance(tuner, DatasetTuner):
        reserve = tuner.live_reserve()
        try:
            for task in tasks:
                n_train = _training_rows(task, reserve)
        except ValueError:
            pass  # each bad cell raises it again on the per-cell path
        else:
            # Spans-only tracing keeps the vectorized fast path: spans
            # need no per-evaluate events, so group-level work stays
            # collapsed.
            if reserve == 0 and not _events_enabled(first):
                vectorized = _run_dataset_batch(tasks, ctx, tuner)
                if vectorized is not None:
                    return vectorized
            shared = _decode_dataset_group(ctx.space, tasks, n_train)

    # Generic path: per-cell execution against the shared context, with
    # the whole group's dataset rows decoded in one vectorized pass.
    spans_on = first.trace_dir is not None
    out: List[BatchItem] = []
    for i, task in enumerate(tasks):
        configs, features = shared.get(i, (None, None))
        try:
            if spans_on:
                with _cell_span(task, parent=group_ctx):
                    result = _run_cell(
                        task, ctx,
                        train_configs=configs, train_features=features,
                    )
            else:
                result = _run_cell(
                    task, ctx,
                    train_configs=configs, train_features=features,
                )
            out.append(result)
        except Exception as exc:  # noqa: BLE001 - per-task attribution
            out.append(TaskFailure.from_exception(exc))
    return out


def _decode_dataset_group(
    space, tasks: List[ExperimentTask], n_train: int
) -> Dict[int, tuple]:
    """Decode every replication's ``n_train`` training rows in one
    vectorized pass: ``{task_position: (configs, features)}``."""
    flat_matrix = np.array(
        [task.dataset_flats[:n_train] for task in tasks], dtype=np.int64
    )
    index_matrix = space.flats_to_index_matrix(flat_matrix.ravel())
    all_configs = space.index_matrix_to_configs(index_matrix)
    all_features = space.index_matrix_to_features(index_matrix)
    return {
        i: (
            all_configs[i * n_train : (i + 1) * n_train],
            all_features[i * n_train : (i + 1) * n_train],
        )
        for i in range(len(tasks))
    }


def _run_dataset_batch(
    tasks: List[ExperimentTask], ctx: _CellContext, tuner: DatasetTuner
) -> Optional[List[BatchItem]]:
    """Fully vectorized replication group via :meth:`Tuner.tune_batch`,
    for a tuner that reserves no live runs and tasks whose payloads
    passed :func:`_training_rows`.

    Returns ``None`` when the tuner declines ``tune_batch``; the caller
    then takes the generic per-cell path.
    """
    batch = DatasetBatch(
        flats=np.array(
            [task.dataset_flats for task in tasks], dtype=np.int64
        ),
        runtimes_ms=np.array(
            [task.dataset_runtimes for task in tasks], dtype=np.float64
        ),
    )
    result = tuner.tune_batch(ctx.space, batch)
    if result is None:
        return None

    out: List[BatchItem] = []
    for i, task in enumerate(tasks):
        try:
            _injected_failure_check(task.cell_key)
            # The "/search" stream is never drawn from by a zero-reserve
            # dataset tuner, so only the device's is created.
            out.append(
                _finish_cell(
                    {},
                    task,
                    ctx,
                    _cell_device(task, ctx),
                    int(result.best_flats[i]),
                    result.history_runtimes[i],
                    result.samples_used,
                    result.best_runtimes_ms[i],
                )
            )
        except (InjectedFailure, NonFiniteResultError) as exc:
            out.append(TaskFailure.from_exception(exc))
    return out
