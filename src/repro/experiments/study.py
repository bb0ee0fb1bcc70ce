"""Full-study orchestration: the paper's entire cross-product.

The paper's study is 5 algorithms x 3 benchmarks x 3 architectures x
5 sample sizes x (800..50) experiments — about 3 million kernel samples
(Section VII, footnote 1).  :func:`run_study` reproduces that pipeline at
any scale:

1. collect the pre-measured dataset for each (kernel, architecture) —
   the non-SMBO sample source (Section VI-B),
2. compute each landscape's true optimum by exhaustive scan (the
   denominator of "percentage of optimum"),
3. dispatch the experiments as replication groups (the batched engine
   of :func:`~repro.experiments.runner.run_experiment_batch`) with
   per-experiment reproducible RNG streams — the fixed design in one
   round, the adaptive design in one round per look,
4. gather everything into a :class:`~repro.experiments.results.StudyResults`.

``StudyConfig`` defaults to the paper's exact design; tests and benches
shrink it via ``experiments_at_largest``, ``sample_sizes`` and the kernel/
architecture lists.
"""

from __future__ import annotations

import math
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..gpu.arch import PAPER_ARCHITECTURES, get_architecture
from ..gpu.device import SimulatedDevice
from ..gpu.landscape import (
    LandscapeTable,
    default_cache_dir,
    landscape_fingerprint,
    load_or_compute_landscape,
)
from ..gpu.noise import DEFAULT_NOISE, NoiseModel
from ..kernels import PAPER_KERNEL_NAMES, get_kernel
from ..obs import NULL_TRACER, MetricsRegistry, global_registry, tracer_for_dir
from ..obs.spans import SpanContext, SpanScope
from ..parallel import (
    EXECUTOR_NAMES,
    ParallelMap,
    RngFactory,
    TaskOutcome,
    make_executor,
)
from ..search import PAPER_ALGORITHM_NAMES, make_tuner
from ..search.base import DatasetTuner
from ..stats.bootstrap import bootstrap_halfwidth
from ..store import (
    ResultStore,
    cell_identity,
    default_store_dir,
    fingerprint_of,
)
from .checkpoint import StudyCheckpoint
from .dataset import PrecollectedDataset, collect_dataset
from .design import AdaptiveConfig, ExperimentDesign
from .optimum import find_true_optimum
from .results import StudyResults
from .runner import (
    ExperimentTask,
    batch_group_key,
    run_experiment,
    run_experiment_batch,
)
from .telemetry import StudyTelemetry

__all__ = ["StudyConfig", "run_study", "paper_study_config"]


@dataclass(frozen=True)
class StudyConfig:
    """Scale and composition of a study run."""

    design: ExperimentDesign = field(default_factory=ExperimentDesign)
    algorithms: Tuple[str, ...] = PAPER_ALGORITHM_NAMES
    kernels: Tuple[str, ...] = PAPER_KERNEL_NAMES
    archs: Tuple[str, ...] = tuple(PAPER_ARCHITECTURES)
    image_x: int = 8192
    image_y: int = 8192
    root_seed: int = 20220530  # the paper's publication era
    final_repeats: int = 10
    noise: NoiseModel = DEFAULT_NOISE
    #: Worker processes (None = all cores, 1 = serial).
    workers: Optional[int] = 1
    #: Per-algorithm constructor overrides, e.g.
    #: ``{"bo_gp": (("init_fraction", 0.2),)}`` for ablations.
    tuner_overrides: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()

    def overrides_for(self, algorithm: str) -> tuple:
        for name, kwargs in self.tuner_overrides:
            if name == algorithm:
                return kwargs
        return ()

    def validate(self) -> None:
        if not self.algorithms:
            raise ValueError("study needs at least one algorithm")
        if not self.kernels:
            raise ValueError("study needs at least one kernel")
        if not self.archs:
            raise ValueError("study needs at least one architecture")
        for arch in self.archs:
            get_architecture(arch)  # raises on unknown names
        for alg in self.algorithms:
            make_tuner(alg, **dict(self.overrides_for(alg)))


def paper_study_config(workers: Optional[int] = None) -> StudyConfig:
    """The paper's full-scale design (~3M samples — hours of compute)."""
    return StudyConfig(workers=workers)


def _needs_data(config: StudyConfig) -> Dict[str, bool]:
    """Which of the study's algorithms read pre-collected dataset rows."""
    return {
        alg: isinstance(
            make_tuner(alg, **dict(config.overrides_for(alg))), DatasetTuner
        )
        for alg in config.algorithms
    }


def _needs_dataset(config: StudyConfig) -> bool:
    return any(_needs_data(config).values())


#: One study cell: ``(algorithm, kernel, arch, sample_size, experiment)``.
_Cell = Tuple[str, str, str, int, int]


def _cell_key(cell: _Cell) -> str:
    return "/".join(str(part) for part in cell)


def _cells(config: StudyConfig) -> Iterator[_Cell]:
    """Every cell of the fixed design, in study (task) order."""
    for alg in config.algorithms:
        for kname in config.kernels:
            for aname in config.archs:
                for size in config.design.sample_sizes:
                    for exp in range(config.design.experiments_for(size)):
                        yield alg, kname, aname, size, exp


def _dataset_cells_covered(
    config: StudyConfig, covered: Dict[str, object]
) -> bool:
    """True when no dataset-driven cell still needs its dataset rows.

    A cell is covered when the result store answered it or the
    checkpoint already completed it; a fully-covered study skips the
    dataset collection pass entirely.
    """
    needs = _needs_data(config)
    return bool(covered) and all(
        _cell_key(cell) in covered
        for cell in _cells(config)
        if needs[cell[0]]
    )


class _CellFingerprints:
    """Memoized per-cell result-store fingerprints for one study config.

    The landscape fingerprint (one kernel/space construction per
    (kernel, arch) pair) dominates the cost of a cell identity, so it is
    computed once and shared across every cell on that landscape —
    fingerprinting a whole study is then microseconds per cell.
    """

    def __init__(self, config: StudyConfig) -> None:
        self._config = config
        self._landscape_fps: Dict[Tuple[str, str], str] = {}
        self._needs_data = _needs_data(config)

    def _landscape_fp(self, kname: str, aname: str) -> str:
        key = (kname, aname)
        fp = self._landscape_fps.get(key)
        if fp is None:
            kernel = get_kernel(
                kname, self._config.image_x, self._config.image_y
            )
            fp = landscape_fingerprint(
                kernel.profile(), get_architecture(aname), kernel.space()
            )
            self._landscape_fps[key] = fp
        return fp

    def fingerprint_for(
        self, alg: str, kname: str, aname: str, size: int, exp: int
    ) -> Tuple[str, dict]:
        """``(fingerprint, identity)`` of one study cell."""
        config = self._config
        identity = cell_identity(
            self._landscape_fp(kname, aname),
            algorithm=alg,
            kernel=kname,
            arch=aname,
            sample_size=size,
            experiment=exp,
            root_seed=config.root_seed,
            final_repeats=config.final_repeats,
            noise=config.noise,
            tuner_kwargs=config.overrides_for(alg),
            dataset_rows=(
                config.design.dataset_rows_required
                if self._needs_data[alg]
                else None
            ),
        )
        return fingerprint_of(identity), identity

    def lookup(
        self, store: ResultStore, cells: Iterable[_Cell]
    ) -> Tuple[Dict[str, object], Dict[str, Tuple[str, dict]]]:
        """Look each cell up in ``store`` once.

        Returns ``(hits, cell_ids)``: the cached results by cell key, and
        every cell's ``(fingerprint, identity)`` for write-back.
        """
        hits: Dict[str, object] = {}
        cell_ids: Dict[str, Tuple[str, dict]] = {}
        for cell in cells:
            key = _cell_key(cell)
            fp, identity = cell_ids[key] = self.fingerprint_for(*cell)
            cached = store.get_result(fp)
            if cached is not None:
                hits[key] = cached
        return hits, cell_ids


def _load_landscapes(
    config: StudyConfig, cache_dir: Optional[str]
) -> Dict[Tuple[str, str], LandscapeTable]:
    """One landscape table per (kernel, arch) — the study's single
    full-space simulator pass per landscape.  Tables land in the on-disk
    cache so worker processes memory-map them instead of recomputing."""
    out: Dict[Tuple[str, str], LandscapeTable] = {}
    for kname in config.kernels:
        kernel = get_kernel(kname, config.image_x, config.image_y)
        profile = kernel.profile()
        space = kernel.space()
        for aname in config.archs:
            out[(kname, aname)] = load_or_compute_landscape(
                profile, get_architecture(aname), space, cache_dir=cache_dir
            )
    return out


def _collect_datasets(
    config: StudyConfig,
    tables: Optional[Dict[Tuple[str, str], LandscapeTable]] = None,
) -> Dict[Tuple[str, str], PrecollectedDataset]:
    """One pre-measured dataset per (kernel, arch), reproducibly seeded."""
    rngs = RngFactory(config.root_seed)
    out: Dict[Tuple[str, str], PrecollectedDataset] = {}
    rows = config.design.dataset_rows_required
    for kname in config.kernels:
        kernel = get_kernel(kname, config.image_x, config.image_y)
        profile = kernel.profile()
        space = kernel.space()
        for aname in config.archs:
            device = SimulatedDevice(
                get_architecture(aname),
                profile,
                noise=config.noise,
                rng=rngs.stream_for(f"dataset/{kname}/{aname}/device"),
                table=tables.get((kname, aname)) if tables else None,
            )
            out[(kname, aname)] = collect_dataset(
                device,
                space,
                rows,
                rngs.stream_for(f"dataset/{kname}/{aname}/sample"),
            )
    return out


def _compute_optima(
    config: StudyConfig,
    tables: Optional[Dict[Tuple[str, str], LandscapeTable]] = None,
) -> Dict[Tuple[str, str], float]:
    """True noise-free optimum of every (kernel, arch) landscape."""
    out: Dict[Tuple[str, str], float] = {}
    for kname in config.kernels:
        kernel = get_kernel(kname, config.image_x, config.image_y)
        profile = kernel.profile()
        space = kernel.space()
        for aname in config.archs:
            opt = find_true_optimum(
                profile,
                get_architecture(aname),
                space,
                table=tables.get((kname, aname)) if tables else None,
            )
            out[(kname, aname)] = opt.runtime_ms
    return out


def _task_for(
    config: StudyConfig,
    datasets: Dict[Tuple[str, str], PrecollectedDataset],
    needs_data: bool,
    cell: _Cell,
    trace_dir: Optional[str] = None,
    landscape_cache: Optional[str] = None,
    trace_level: str = "full",
    span_parent: Optional[SpanContext] = None,
) -> ExperimentTask:
    """One cell's :class:`ExperimentTask`, dataset slice attached."""
    alg, kname, aname, size, exp = cell
    flats = runtimes = None
    if needs_data:
        sl = datasets[(kname, aname)].slice_for(size, exp)
        flats = tuple(int(f) for f in sl.flats)
        runtimes = tuple(float(r) for r in sl.runtimes_ms)
    return ExperimentTask(
        algorithm=alg,
        kernel=kname,
        arch=aname,
        sample_size=size,
        experiment=exp,
        root_seed=config.root_seed,
        image_x=config.image_x,
        image_y=config.image_y,
        final_repeats=config.final_repeats,
        noise=config.noise,
        dataset_flats=flats,
        dataset_runtimes=runtimes,
        tuner_kwargs=config.overrides_for(alg),
        trace_dir=trace_dir,
        landscape_cache=landscape_cache,
        trace_level=trace_level,
        span_parent=span_parent,
    )


def build_tasks(
    config: StudyConfig,
    datasets: Dict[Tuple[str, str], PrecollectedDataset],
    trace_dir: Optional[str] = None,
    landscape_cache: Optional[str] = None,
    trace_level: str = "full",
    span_parent: Optional[SpanContext] = None,
    skip_data: Optional[Dict[str, object]] = None,
) -> List[ExperimentTask]:
    """The full task list for one study, in a deterministic order.

    ``skip_data`` maps cell keys that already have a materialized result
    (checkpoint or result store) — their tasks are built without a
    dataset slice, so a fully-warm study never needs the dataset phase
    at all.  Those tasks are placeholders for result assembly and are
    never dispatched.
    """
    needs_data = _needs_data(config)
    skip = skip_data or {}
    return [
        _task_for(
            config, datasets,
            needs_data[cell[0]] and _cell_key(cell) not in skip,
            cell,
            trace_dir=trace_dir,
            landscape_cache=landscape_cache,
            trace_level=trace_level,
            span_parent=span_parent,
        )
        for cell in _cells(config)
    ]


@dataclass
class _RoundEngine:
    """Runs planned cells in rounds and keeps every cell's fate.

    Both replication designs run through :meth:`run_round`: the fixed
    design is one round over every cell, the adaptive design one round
    per look.  A round resolves its cells in task order —
    checkpoint-completed cells are replayed, result-store hits stream
    into the checkpoint, and the rest dispatch as replication groups
    through :meth:`~repro.parallel.ParallelMap.run_grouped`, whose
    outcome hook writes checkpoint lines in input order.  Completed and
    resumed cells the store did not answer are then written back to it.
    """

    pool: ParallelMap
    telemetry: StudyTelemetry
    ckpt: Optional[StudyCheckpoint]
    store: Optional[ResultStore]
    #: Cells the checkpoint had completed before this run started.
    done: Dict[str, object]
    results: Dict[str, object] = field(default_factory=dict)
    failed: Dict[str, dict] = field(default_factory=dict)
    resumed: int = 0
    store_hits: int = 0

    def run_round(
        self,
        tasks: List[ExperimentTask],
        hits: Dict[str, object],
        cell_ids: Dict[str, Tuple[str, dict]],
    ) -> None:
        """Resolve ``tasks``; ``hits`` and ``cell_ids`` come from
        :meth:`_CellFingerprints.lookup` (empty without a store)."""
        pending: List[ExperimentTask] = []
        resumed = answered = 0
        for task in tasks:
            key = task.cell_key
            if key in self.done:
                self.results[key] = self.done[key]
                resumed += 1
            elif key in hits:
                self.results[key] = hits[key]
                answered += 1
                if self.ckpt is not None:
                    # A later resume then replays the hit without the
                    # store.
                    self.ckpt.record_result(key, hits[key])
            else:
                pending.append(task)
        self.resumed += resumed
        self.store_hits += answered
        self.telemetry.add_tasks(len(pending))
        self.telemetry.add_skipped(resumed + answered)
        notes = []
        if resumed:
            notes.append(f"{resumed} cells already complete")
        if answered:
            notes.append(f"{answered} answered by the result store")
        self.telemetry.line(
            f"running {len(pending)} experiments on {self._fleet()}"
            + (f" ({', '.join(notes)})" if notes else "")
        )
        self.pool.run_grouped(
            run_experiment,
            run_experiment_batch,
            pending,
            group_key=batch_group_key,
            on_outcome=self._on_outcome,
            cost=lambda task: task.sample_size,
        )
        if self.store is not None:
            # Resumed cells are written back too, so resuming an old
            # study migrates its results into the store for every later
            # study.
            for task in tasks:
                key = task.cell_key
                if key in self.results and key not in hits:
                    fp, identity = cell_ids[key]
                    self.store.put_result(fp, self.results[key], identity)

    def _fleet(self) -> str:
        executor = self.pool.executor
        if executor is None:
            return f"{self.pool.workers} workers"
        if executor.name == "socket":
            return f"{executor.worker_count()} socket worker(s)"
        return f"the {executor.name} executor"

    def _on_outcome(self, outcome: TaskOutcome) -> None:
        self.telemetry.task_finished(outcome.ok)
        key = outcome.task.cell_key
        if outcome.ok:
            self.results[key] = outcome.result
            if self.ckpt is not None:
                self.ckpt.record_result(key, outcome.result)
            return
        self.failed[key] = {
            "cell_key": key,
            "error": repr(outcome.error),
            "error_type": outcome.error_type,
            "traceback": outcome.traceback,
            "attempts": outcome.attempts,
            # Which machine produced the final failed attempt (socket
            # executor only) — metadata, never checkpoint bytes.
            "node": outcome.node,
        }
        if self.ckpt is not None:
            self.ckpt.record_failure(
                key,
                error=repr(outcome.error),
                error_type=outcome.error_type,
                traceback=outcome.traceback,
            )

    def collect(self, keys: Iterable[str]) -> Tuple[List[object], List[dict]]:
        """Results and failed-cell records of ``keys``, in that order."""
        results: List[object] = []
        failed: List[dict] = []
        for key in keys:
            if key in self.results:
                results.append(self.results[key])
            elif key in self.failed:
                failed.append(self.failed[key])
        return results, failed


@dataclass
class _AdaptiveGroup:
    """Mutable state of one replication group in the adaptive loop.

    A group is every replication of one ``(algorithm, kernel, arch,
    sample_size)`` study cell; its key is the cell key without the
    experiment index.
    """

    algorithm: str
    kernel: str
    arch: str
    sample_size: int
    #: Cumulative replication counts at each look (ends at the ceiling).
    schedule: List[int]
    #: The fixed design's replication count (savings baseline).
    budget: int
    dispatched: int = 0
    look: int = 0
    stopped: bool = False
    reason: Optional[str] = None
    halfwidth: Optional[float] = None
    looks: List[dict] = field(default_factory=list)
    #: Replication count from a checkpointed stop decision, replayed
    #: instead of re-derived on resume.
    replay_target: Optional[int] = None

    @property
    def key(self) -> str:
        return (
            f"{self.algorithm}/{self.kernel}/{self.arch}/{self.sample_size}"
        )

    @property
    def ceiling(self) -> int:
        return self.schedule[-1]

    def next_target(self) -> int:
        """Cumulative replication count to grow to this round."""
        if self.replay_target is not None:
            return self.replay_target
        for n in self.schedule:
            if n > self.dispatched:
                return n
        return self.ceiling

    def record(self) -> dict:
        """JSON-serializable stop-decision record (checkpoint/metadata)."""
        return {
            "replications": self.dispatched,
            "budget": self.budget,
            "reason": self.reason,
            "look": self.look,
            "halfwidth": self.halfwidth,
            "looks": [dict(entry) for entry in self.looks],
        }


def _run_adaptive(
    config: StudyConfig,
    adaptive: AdaptiveConfig,
    engine: _RoundEngine,
    datasets: Dict[Tuple[str, str], PrecollectedDataset],
    optima: Dict[Tuple[str, str], float],
    registry: MetricsRegistry,
    fingerprints: Optional[_CellFingerprints],
    task_opts: dict,
) -> Tuple[List[str], dict]:
    """The adaptive sequential-replication loop.

    Grows every replication group in rounds through ``engine``; after
    each round, each still-active group takes a *look*: an
    anytime-valid bootstrap CI on its median percent-of-optimum at the
    alpha-spending-corrected per-look confidence.  Groups stop at the
    CI target or at their ceiling.

    Determinism: each look's bootstrap RNG is a stream derived from the
    (group key, look index) pair — never from execution order, worker
    count, or wall clock — and the percent vector is assembled in
    experiment order.  On resume, checkpointed stop decisions are
    replayed verbatim rather than re-derived.

    When a result store is attached, each round's cells are looked up
    by their content fingerprints before dispatch, so whole replication
    groups short-circuit when a previous study already materialized
    them — the looks then re-derive the same stopping decisions from
    the identical numbers.

    Returns ``(cell_keys, adaptive_metadata)``: the keys of every cell
    the groups grew into, in study order.
    """
    ckpt = engine.ckpt
    trace_dir = task_opts["trace_dir"]
    trace_level = task_opts["trace_level"]
    span_parent = task_opts["span_parent"]
    rngs = RngFactory(config.root_seed)
    events_on = trace_dir is not None and trace_level == "full"
    tracer = tracer_for_dir(trace_dir) if events_on else NULL_TRACER
    needs_data = _needs_data(config)

    groups: List[_AdaptiveGroup] = []
    for alg in config.algorithms:
        for kname in config.kernels:
            for aname in config.archs:
                for size in config.design.sample_sizes:
                    group = _AdaptiveGroup(
                        algorithm=alg,
                        kernel=kname,
                        arch=aname,
                        sample_size=size,
                        schedule=adaptive.replication_schedule(
                            config.design, size
                        ),
                        budget=config.design.experiments_for(size),
                    )
                    rec = (
                        ckpt.stopped.get(group.key)
                        if ckpt is not None
                        else None
                    )
                    if rec is not None:
                        group.replay_target = int(rec["replications"])
                        group.reason = rec.get("reason")
                        group.halfwidth = rec.get("halfwidth")
                        group.look = int(rec.get("look", 0))
                        group.looks = [
                            dict(entry) for entry in rec.get("looks", [])
                        ]
                    groups.append(group)
    replayed = sum(1 for g in groups if g.replay_target is not None)
    if ckpt is not None:
        # Adaptive totals are only known as stopping decisions land, so
        # the plan records the fixed-design budget instead of an exact
        # cell count; written once per checkpoint file (no-op on resume).
        ckpt.record_plan(
            {"budget_cells": sum(g.budget for g in groups)}
        )

    engine.telemetry.line(
        f"adaptive replication: {len(groups)} groups, "
        + adaptive.describe()
        + (
            f", {replayed} stop decisions replayed from checkpoint"
            if replayed
            else ""
        )
    )

    def count_stop(group: _AdaptiveGroup) -> None:
        engine.telemetry.group_stopped(group.budget - group.dispatched)
        registry.counter(
            "adaptive_groups_stopped_total",
            "Adaptive replication groups stopped, by stop reason.",
            reason=str(group.reason),
        ).inc()

    def stop(group: _AdaptiveGroup, reason: str, halfwidth: float) -> None:
        group.stopped = True
        group.reason = reason
        group.halfwidth = (
            float(halfwidth) if math.isfinite(halfwidth) else None
        )
        count_stop(group)
        if ckpt is not None:
            ckpt.record_stop(group.key, group.record())
        if tracer.enabled:
            fields = dict(
                cell=group.key,
                reason=reason,
                replications=group.dispatched,
                budget=group.budget,
                look=group.look,
            )
            if group.halfwidth is not None:
                fields["halfwidth"] = group.halfwidth
            tracer.event("adaptive_stop", **fields)

    while True:
        active = [g for g in groups if not g.stopped]
        if not active:
            break
        cells: List[_Cell] = []
        for group in active:
            target = group.next_target()
            cells.extend(
                (group.algorithm, group.kernel, group.arch,
                 group.sample_size, exp)
                for exp in range(group.dispatched, target)
            )
            group.dispatched = target
        tasks = [
            _task_for(
                config, datasets, needs_data[cell[0]], cell, **task_opts
            )
            for cell in cells
        ]
        hits, cell_ids = (
            fingerprints.lookup(engine.store, cells)
            if fingerprints is not None
            else ({}, {})
        )
        engine.run_round(tasks, hits, cell_ids)
        for group in active:
            if group.replay_target is not None:
                # Stop decision made (and checkpointed) by the interrupted
                # run; replay it rather than re-deriving.
                group.stopped = True
                count_stop(group)
                continue
            group.look += 1
            with ExitStack() as look_stack:
                if trace_dir is not None:
                    look_stack.enter_context(
                        SpanScope(
                            trace_dir,
                            "adaptive-look",
                            subject=f"{group.key}/look/{group.look}",
                            parent=span_parent,
                            fields={"replications": group.dispatched},
                        )
                    )
                confidence = adaptive.confidence_at_look(group.look)
                optimum = optima[(group.kernel, group.arch)]
                percents = [
                    100.0 * optimum / result.final_runtime_ms
                    for result in (
                        engine.results.get(f"{group.key}/{exp}")
                        for exp in range(group.dispatched)
                    )
                    if result is not None
                ]
                halfwidth = (
                    bootstrap_halfwidth(
                        percents,
                        statistic=np.median,
                        confidence=confidence,
                        n_resamples=adaptive.n_resamples,
                        rng=rngs.stream_for(
                            f"adaptive/{group.key}/look/{group.look}"
                        ),
                    )
                    if len(percents) >= 2
                    else math.inf
                )
                group.looks.append(
                    {
                        "look": group.look,
                        "replications": group.dispatched,
                        "confidence": confidence,
                        "halfwidth": (
                            float(halfwidth)
                            if math.isfinite(halfwidth)
                            else None
                        ),
                    }
                )
                if halfwidth <= adaptive.ci_target:
                    stop(group, "ci_target", halfwidth)
                elif group.dispatched >= group.ceiling:
                    stop(group, "ceiling", halfwidth)

    executed = sum(g.dispatched for g in groups)
    budget_total = sum(g.budget for g in groups)
    saved = budget_total - executed
    registry.counter(
        "adaptive_replications_executed_total",
        "Replications actually run (or resumed) under adaptive stopping.",
    ).inc(float(executed))
    registry.counter(
        "adaptive_replications_saved_total",
        "Replications the fixed design would have run but adaptive "
        "stopping skipped.",
    ).inc(float(saved))
    engine.telemetry.line(
        f"adaptive replication: {executed}/{budget_total} replications "
        f"({saved} saved)"
    )

    meta = {
        "config": {
            "ci_target": adaptive.ci_target,
            "confidence": adaptive.confidence,
            "batch_size": adaptive.batch_size,
            "min_replications": adaptive.min_replications,
            "max_replications": adaptive.max_replications,
            "n_resamples": adaptive.n_resamples,
        },
        "groups": {g.key: g.record() for g in groups},
        "replications_executed": executed,
        "replications_saved": saved,
        "replications_budget": budget_total,
        "groups_replayed": replayed,
        "store_hits": engine.store_hits,
    }
    keys = [f"{g.key}/{exp}" for g in groups for exp in range(g.dispatched)]
    return keys, meta


def run_study(
    config: StudyConfig,
    compute_optima: bool = True,
    progress: Union[bool, Callable[[str], None]] = False,
    checkpoint: Optional[object] = None,
    failure_policy: str = "fail_fast",
    retries: int = 0,
    trace_dir: Optional[object] = None,
    metrics: Optional[MetricsRegistry] = None,
    landscape_cache: Optional[object] = None,
    adaptive: Optional[AdaptiveConfig] = None,
    trace_level: str = "full",
    run_ledger: Optional[object] = None,
    run_argv: Optional[List[str]] = None,
    executor: Optional[str] = None,
    executor_bind: Optional[str] = None,
    min_workers: int = 0,
    result_store: Optional[object] = None,
) -> StudyResults:
    """Run the full study described by ``config``.

    Parameters
    ----------
    compute_optima:
        Scan each landscape for its true optimum (needed for the Fig. 2/3
        percentage-of-optimum metrics; skippable when only speedup/CLES
        figures are wanted).
    progress:
        ``True`` prints progress lines (phase completions, throughput,
        ETA); a callable receives the same lines instead of stdout.
    checkpoint:
        Path to a JSONL checkpoint file (see
        :class:`~repro.experiments.checkpoint.StudyCheckpoint`).
        Completed cells stream to it as they finish; on restart with the
        same path, those cells are skipped and the merged results are
        bit-identical to an uninterrupted run (per-cell RNG is derived
        from the cell key, never from execution order).
    failure_policy:
        ``"fail_fast"`` (default) re-raises the first cell failure as
        :class:`~repro.parallel.TaskError` naming the exact cell.
        ``"collect"`` runs every cell, records failures in
        ``StudyResults.metadata["failed_cells"]``, and returns the
        surviving results.
    retries:
        Per-cell retry attempts (with capped exponential backoff) for
        transient errors — see :data:`repro.parallel.DEFAULT_RETRYABLE`.
    trace_dir:
        Directory for search-trajectory traces.  Each worker process
        appends structured JSONL events (``tuner_start``, ``evaluate``,
        ``incumbent_update``, ``model_fit``, ...) to its own
        ``trace-<pid>.jsonl`` inside it.  ``None`` (default) disables
        tracing with negligible overhead and bit-identical results.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` to aggregate study-wide
        counters into (``evaluations_total``, ``launch_failures_total``,
        timing histogram sums, pool ``task_retries_total``, simulator
        counters).  A private registry is used when ``None``; either way
        the aggregate lands in ``StudyResults.metadata["metrics"]``.
    landscape_cache:
        Directory for memory-mapped landscape tables.  When set (or when
        ``REPRO_LANDSCAPE_CACHE`` is in the environment), each
        (kernel, arch) landscape's full noise-free runtime vector is
        computed once up front — or loaded from a previous run's cache —
        and every dataset row, optimum scan, and tuner measurement
        becomes a table lookup.  Worker processes memory-map the same
        files, sharing read-only pages.  Results are bit-identical with
        the cache on or off.  ``None`` with no environment override runs
        fully live.
    adaptive:
        An :class:`~repro.experiments.design.AdaptiveConfig` switches
        replication from the fixed design to sequential stopping: each
        ``(algorithm, kernel, arch, sample_size)`` group grows in
        batches and stops as soon as an anytime-valid
        (alpha-spending-corrected) bootstrap CI on its median
        percent-of-optimum reaches the configured halfwidth target — or
        at its replication ceiling.  Requires ``compute_optima=True``.
        Stop decisions are written to the checkpoint (``"stopped"``
        lines) and replayed verbatim on resume, so a resumed adaptive
        study is bit-identical to an uninterrupted one.  ``None``
        (default) runs the fixed design unchanged.
    trace_level:
        What lands in ``trace_dir``: ``"spans"`` — hierarchical spans
        only (study → phase → worker-chunk → replication-group → cell →
        adaptive-look; cheap enough that the vectorized batch paths stay
        enabled); ``"full"`` (default) — spans plus trajectory events.
        Ignored without a ``trace_dir``.  The study and phase spans run
        either way: their docs land in
        ``StudyResults.metadata["spans"]`` and time the telemetry's
        phases.  Never affects results.
    run_ledger:
        Directory of the content-addressed run ledger.  When set, the
        finished study writes a provenance manifest (config,
        fingerprints, git rev, environment, telemetry, metrics,
        headline numbers) into it — see :mod:`repro.obs.runs` and the
        ``repro-runs`` CLI.  The manifest's ``run_id`` is recorded in
        ``StudyResults.metadata["run_id"]``.  Never affects results.
    run_argv:
        The CLI argv to record in the run manifest (``None`` for
        programmatic invocations).
    executor:
        Transport backend for the experiments phase: ``"serial"``,
        ``"process"``, or ``"socket"`` (see
        :mod:`repro.parallel.executors`).  ``None`` (default) keeps the
        historical auto-selection (inline for one worker, else a
        process pool).  ``"socket"`` starts a TCP coordinator and
        shards work across however many ``repro-worker connect``
        processes attach — on this machine or others.  Checkpoint
        files are byte-identical across every backend and worker
        count.
    executor_bind:
        ``HOST:PORT`` for the socket coordinator (default
        ``127.0.0.1:0``, an ephemeral loopback port; the resolved
        address is announced via progress/telemetry).  Ignored by
        other backends.
    min_workers:
        With the socket executor, block until this many workers have
        connected before dispatching (default 0: start immediately and
        let workers join elastically).
    result_store:
        A :class:`~repro.store.ResultStore`, a store directory path,
        ``None`` (use ``$REPRO_RESULT_STORE``; unset disables the
        store), or ``False`` (disabled even when the environment names
        a store).  When attached, every cell is looked up by its content
        fingerprint before dispatch — warm cells short-circuit the
        pool entirely (and stream into the checkpoint, so later resumes
        need neither store nor re-run), completed cells are written
        back, and a fully-warm study also skips dataset collection.  A
        cold (or absent) store changes nothing: results and checkpoint
        bytes are identical with the store on or off.  Hits/misses/
        writes are counted in the study metrics registry, and the hit
        count lands in ``StudyResults.metadata["store_hits"]``.
    """
    config.validate()
    if trace_level not in ("spans", "full"):
        raise ValueError(
            f"trace_level must be 'spans' or 'full', got {trace_level!r}"
        )
    if adaptive is not None and not compute_optima:
        raise ValueError(
            "adaptive replication requires compute_optima=True — the "
            "stopping rule is a CI on percent-of-optimum, which needs "
            "each landscape's true optimum"
        )
    if executor is not None and executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"executor must be one of {EXECUTOR_NAMES}, got {executor!r}"
        )
    emit = print if progress is True else (progress or None)
    telemetry = StudyTelemetry(emit=emit if callable(emit) else None)
    registry = metrics if metrics is not None else MetricsRegistry()
    # Dataset collection and optimum scans run in *this* process and hit
    # the process-global simulator counters; snapshot them so the delta
    # can be folded into the study registry at the end.
    _global_before = global_registry().flat_counters()

    if landscape_cache is None:
        landscape_cache = default_cache_dir()
    cache_dir = str(landscape_cache) if landscape_cache is not None else None
    trace_dir_str = str(trace_dir) if trace_dir is not None else None

    with ExitStack() as span_stack:
        # The study root span brackets the whole pipeline; every phase
        # span parents on it.
        span_stack.enter_context(
            telemetry.study(trace_dir_str, f"seed={config.root_seed}")
        )
        tables: Optional[Dict[Tuple[str, str], LandscapeTable]] = None
        if cache_dir is not None:
            with telemetry.phase("landscapes"):
                tables = _load_landscapes(config, cache_dir)
            telemetry.line(
                f"prepared {len(tables)} landscape tables in {cache_dir} "
                f"in {telemetry.phase_seconds['landscapes']:.1f}s"
            )

        store: Optional[ResultStore] = None
        if result_store is None:
            result_store = default_store_dir()
        if result_store is False:
            result_store = None
        if result_store is not None:
            store = (
                result_store
                if isinstance(result_store, ResultStore)
                else ResultStore(result_store, metrics=registry)
            )
        store_dir = str(store.root) if store is not None else None

        # The checkpoint loads before the dataset phase so its completed
        # cells can join store hits in deciding whether dataset
        # collection is needed at all.  Nothing is written until the
        # first record_* call, so checkpoint bytes are unaffected.
        ckpt: Optional[StudyCheckpoint] = None
        if checkpoint is not None:
            ckpt = (
                checkpoint
                if isinstance(checkpoint, StudyCheckpoint)
                else StudyCheckpoint(checkpoint, root_seed=config.root_seed)
            )

        fingerprints = (
            _CellFingerprints(config) if store is not None else None
        )
        #: The fixed design's store pre-scan: cached results and every
        #: cell's (fingerprint, identity) for write-back.
        store_hits: Dict[str, object] = {}
        cell_ids: Dict[str, Tuple[str, dict]] = {}
        if fingerprints is not None and adaptive is None:
            with telemetry.phase("store"):
                store_hits, cell_ids = fingerprints.lookup(
                    store, _cells(config)
                )
            telemetry.line(
                f"result store {store.root}: "
                f"{len(store_hits)}/{len(cell_ids)} cells warm "
                f"in {telemetry.phase_seconds['store']:.1f}s"
            )

        #: Cells with a materialized result (store and/or checkpoint):
        #: never dispatched, so they never need their dataset rows.
        covered: Dict[str, object] = dict(store_hits)
        if ckpt is not None:
            covered.update(ckpt.completed)
        datasets: Dict[Tuple[str, str], PrecollectedDataset] = {}
        if _needs_dataset(config):
            if adaptive is None and _dataset_cells_covered(config, covered):
                # The rows would never be read, so the whole collection
                # pass is skipped.
                telemetry.line(
                    "dataset collection skipped: every dataset-driven "
                    "cell is already materialized"
                )
            else:
                with telemetry.phase("dataset"):
                    datasets = _collect_datasets(config, tables)
                telemetry.line(
                    f"collected {len(datasets)} datasets "
                    f"({config.design.dataset_rows_required} rows each) "
                    f"in {telemetry.phase_seconds['dataset']:.1f}s"
                )

        optima: Dict[Tuple[str, str], float] = {}
        if compute_optima:
            with telemetry.phase("optima"):
                optima = _compute_optima(config, tables)
            telemetry.line(
                f"scanned {len(optima)} landscapes for true optima "
                f"in {telemetry.phase_seconds['optima']:.1f}s"
            )

        # The experiments-phase span is constructed (not yet entered)
        # here so a traced study's context can ride inside every task
        # across the process-pool boundary.
        exp_span = telemetry.phase("experiments")
        exp_ctx = exp_span.ctx if trace_dir_str is not None else None
        executor_obj = None
        if executor is not None:
            executor_obj = make_executor(
                executor,
                workers=config.workers,
                bind=executor_bind,
                on_event=telemetry.line,
            )
            # The executor outlives every dispatch in the study (the
            # socket coordinator keeps its workers across phases) and
            # is torn down with the span stack.
            span_stack.callback(executor_obj.close)
            if executor == "socket":
                telemetry.line(
                    f"socket coordinator listening on "
                    f"{executor_obj.address} — attach workers with: "
                    f"repro-worker connect {executor_obj.address}"
                )
                if min_workers > 0:
                    telemetry.line(
                        f"waiting for {min_workers} worker(s)…"
                    )
                    executor_obj.wait_for_workers(min_workers)
        telemetry.executor = executor
        pool = ParallelMap(
            workers=config.workers,
            failure_policy=failure_policy,
            retries=retries,
            metrics=registry,
            span_context=exp_ctx,
            executor=executor_obj,
        )

        engine = _RoundEngine(
            pool, telemetry, ckpt, store,
            done=dict(ckpt.completed) if ckpt is not None else {},
        )
        task_opts = dict(
            trace_dir=trace_dir_str,
            landscape_cache=cache_dir,
            trace_level=trace_level,
            span_parent=exp_ctx,
        )
        adaptive_meta: Optional[dict] = None
        telemetry.start_tasks(0)
        try:
            with exp_span:
                if adaptive is None:
                    tasks = build_tasks(
                        config, datasets, skip_data=covered, **task_opts
                    )
                    if ckpt is not None:
                        # The planned shape, for read-only watchers;
                        # written once per checkpoint file (no-op on
                        # resume).
                        ckpt.record_plan({"total_cells": len(tasks)})
                    engine.run_round(tasks, store_hits, cell_ids)
                    keys = [task.cell_key for task in tasks]
                else:
                    keys, adaptive_meta = _run_adaptive(
                        config, adaptive, engine, datasets, optima,
                        registry, fingerprints, task_opts,
                    )
        finally:
            if ckpt is not None:
                ckpt.close()
        results, failed_cells = engine.collect(keys)
    if failed_cells:
        telemetry.line(
            f"{len(failed_cells)} cells failed: "
            + ", ".join(f["cell_key"] for f in failed_cells[:10])
            + ("…" if len(failed_cells) > 10 else "")
        )

    # Fold every cell's counter deltas into the study registry (results
    # carry them across the pool boundary — and across checkpoint resume,
    # where the worker process that produced them is long gone), plus the
    # parent-process simulator work (dataset collection, optimum scans).
    for result in results:
        registry.merge_flat(getattr(result, "metrics", {}) or {})
    _global_after = global_registry().flat_counters()
    parent_delta = {
        name: _global_after[name] - _global_before.get(name, 0.0)
        for name in _global_after
        if _global_after[name] != _global_before.get(name, 0.0)
    }
    registry.merge_flat(parent_delta)

    metadata = {
        "design": config.design.schedule,
        "algorithms": list(config.algorithms),
        "kernels": list(config.kernels),
        "archs": list(config.archs),
        "image": [config.image_x, config.image_y],
        "root_seed": config.root_seed,
        "final_repeats": config.final_repeats,
        "total_experiments": len(keys),
        "failed_cells": failed_cells,
        "resumed_from_checkpoint": engine.resumed,
        "failure_policy": failure_policy,
        "executor": executor,
        "adaptive": adaptive_meta,
        "telemetry": telemetry.snapshot(),
        "spans": telemetry.span_docs(),
        "metrics": registry.to_json(),
        "trace_dir": str(trace_dir) if trace_dir is not None else None,
        "trace_level": trace_level if trace_dir is not None else None,
        "landscape_cache": cache_dir,
        "result_store": store_dir,
        "store_hits": engine.store_hits,
    }
    study_results = StudyResults(
        results=results, optima=optima, metadata=metadata
    )
    if run_ledger is not None:
        from ..obs.runs import build_manifest, record_run

        # The single true wall-clock boundary: the ledger records when
        # the run really happened; everything downstream of this value
        # is deterministic in it.
        created = time.time()  # repro: noqa[REP002] run provenance needs real wall-clock time; build_manifest is deterministic in the threaded value
        manifest = build_manifest(
            config,
            study_results,
            argv=run_argv,
            adaptive=adaptive,
            created=created,
        )
        manifest_path = record_run(run_ledger, manifest)
        # StudyResults copies the metadata dict, so annotate its copy.
        study_results.metadata["run_id"] = manifest["run_id"]
        study_results.metadata["run_manifest"] = str(manifest_path)
        telemetry.line(
            f"run {manifest['run_id']} recorded in {run_ledger}"
        )
    return study_results
