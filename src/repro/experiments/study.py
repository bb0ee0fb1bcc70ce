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
   per-experiment reproducible RNG streams,
4. gather everything into a :class:`~repro.experiments.results.StudyResults`.

``StudyConfig`` defaults to the paper's exact design; tests and benches
shrink it via ``experiments_at_largest``, ``sample_sizes`` and the kernel/
architecture lists.
"""

from __future__ import annotations

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

from ..gpu.arch import PAPER_ARCHITECTURES, GpuArchitecture, get_architecture
from ..gpu.device import SimulatedDevice
from ..gpu.landscape import (
    LandscapeTable,
    default_cache_dir,
    landscape_fingerprint,
    load_or_compute_landscape,
)
from ..gpu.noise import DEFAULT_NOISE, NoiseModel
from ..gpu.workload import WorkloadProfile
from ..kernels import PAPER_KERNEL_NAMES, get_kernel
from ..obs import MetricsRegistry, global_registry
from ..obs.spans import SpanContext
from ..parallel import (
    EXECUTOR_NAMES,
    ParallelMap,
    RngFactory,
    TaskOutcome,
    make_executor,
)
from ..search import PAPER_ALGORITHM_NAMES, make_tuner
from ..search.base import DatasetTuner
from ..searchspace import SearchSpace
from ..store import (
    ResultStore,
    cell_identity,
    default_store_dir,
    fingerprint_of,
)
from .checkpoint import StudyCheckpoint
from .dataset import PrecollectedDataset, collect_dataset
from .design import ExperimentDesign
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


def _landscapes(
    config: StudyConfig,
) -> Iterator[
    Tuple[Tuple[str, str], WorkloadProfile, SearchSpace, GpuArchitecture]
]:
    """Every (kernel, arch) landscape of the study, in study order:
    ``((kernel, arch), profile, space, arch)``, each kernel's profile
    and space built once."""
    archs = [(aname, get_architecture(aname)) for aname in config.archs]
    for kname in config.kernels:
        kernel = get_kernel(kname, config.image_x, config.image_y)
        profile = kernel.profile()
        space = kernel.space()
        for aname, arch in archs:
            yield (kname, aname), profile, space, arch


class _CellFingerprints:
    """Memoized per-cell result-store fingerprints for one study config.

    The landscape fingerprint dominates the cost of a cell identity, so
    it is computed once per landscape and shared across every cell on
    it — fingerprinting a whole study is then microseconds per cell.
    """

    def __init__(self, config: StudyConfig) -> None:
        self._config = config
        self._landscape_fps = {
            key: landscape_fingerprint(profile, arch, space)
            for key, profile, space, arch in _landscapes(config)
        }
        self._needs_data = _needs_data(config)

    def fingerprint_for(
        self, alg: str, kname: str, aname: str, size: int, exp: int
    ) -> Tuple[str, dict]:
        """``(fingerprint, identity)`` of one study cell."""
        config = self._config
        identity = cell_identity(
            self._landscape_fps[(kname, aname)],
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
    return {
        key: load_or_compute_landscape(
            profile, arch, space, cache_dir=cache_dir
        )
        for key, profile, space, arch in _landscapes(config)
    }


def _collect_datasets(
    config: StudyConfig,
    tables: Optional[Dict[Tuple[str, str], LandscapeTable]] = None,
) -> Dict[Tuple[str, str], PrecollectedDataset]:
    """One pre-measured dataset per (kernel, arch), reproducibly seeded."""
    rngs = RngFactory(config.root_seed)
    out: Dict[Tuple[str, str], PrecollectedDataset] = {}
    rows = config.design.dataset_rows_required
    for key, profile, space, arch in _landscapes(config):
        kname, aname = key
        device = SimulatedDevice(
            arch,
            profile,
            noise=config.noise,
            rng=rngs.stream_for(f"dataset/{kname}/{aname}/device"),
            table=tables.get(key) if tables else None,
        )
        out[key] = collect_dataset(
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
    return {
        key: find_true_optimum(
            profile, arch, space, table=tables.get(key) if tables else None
        ).runtime_ms
        for key, profile, space, arch in _landscapes(config)
    }


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
    tasks: List[ExperimentTask] = []
    for cell in _cells(config):
        alg, kname, aname, size, exp = cell
        flats = runtimes = None
        if needs_data[alg] and _cell_key(cell) not in skip:
            sl = datasets[(kname, aname)].slice_for(size, exp)
            flats = tuple(int(f) for f in sl.flats)
            runtimes = tuple(float(r) for r in sl.runtimes_ms)
        tasks.append(
            ExperimentTask(
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
        )
    return tasks


def _fleet(pool: ParallelMap) -> str:
    executor = pool.executor
    if executor is None:
        return f"{pool.workers} workers"
    if executor.name == "socket":
        return f"{executor.worker_count()} socket worker(s)"
    return f"the {executor.name} executor"


def _run_cells(
    tasks: List[ExperimentTask],
    pool: ParallelMap,
    telemetry: StudyTelemetry,
    ckpt: Optional[StudyCheckpoint],
    store: Optional[ResultStore],
    hits: Dict[str, object],
    cell_ids: Dict[str, Tuple[str, dict]],
) -> Tuple[List[object], List[dict], int, int]:
    """Resolve every cell of ``tasks`` and keep each cell's fate.

    Checkpoint-completed cells are replayed, result-store ``hits``
    stream into the checkpoint, and the rest dispatch as replication
    groups through :meth:`~repro.parallel.ParallelMap.run_grouped`,
    whose outcome hook writes checkpoint lines in input order.
    Completed and resumed cells the store did not answer are then
    written back to it (``cell_ids`` holds their store identities).

    Returns ``(results, failed_cells, resumed, answered)``: results and
    failed-cell records in task order, and how many cells the
    checkpoint and the store satisfied.
    """
    done = dict(ckpt.completed) if ckpt is not None else {}
    results: Dict[str, object] = {}
    failed: Dict[str, dict] = {}
    pending: List[ExperimentTask] = []
    resumed = answered = 0
    for task in tasks:
        key = task.cell_key
        if key in done:
            results[key] = done[key]
            resumed += 1
        elif key in hits:
            results[key] = hits[key]
            answered += 1
            if ckpt is not None:
                # A later resume then replays the hit without the store.
                ckpt.record_result(key, hits[key])
        else:
            pending.append(task)
    telemetry.start_tasks(len(pending), resumed)
    telemetry.line(
        f"running {len(pending)} experiments on {_fleet(pool)}"
        + (f" ({answered} answered by the result store)" if answered else "")
    )

    def on_outcome(outcome: TaskOutcome) -> None:
        telemetry.task_finished(outcome.ok)
        key = outcome.task.cell_key
        if outcome.ok:
            results[key] = outcome.result
            if ckpt is not None:
                ckpt.record_result(key, outcome.result)
            return
        failed[key] = {
            "cell_key": key,
            "error": repr(outcome.error),
            "error_type": outcome.error_type,
            "traceback": outcome.traceback,
            "attempts": outcome.attempts,
            # Which machine produced the final failed attempt (socket
            # executor only) — metadata, never checkpoint bytes.
            "node": outcome.node,
        }
        if ckpt is not None:
            ckpt.record_failure(
                key,
                error=repr(outcome.error),
                error_type=outcome.error_type,
                traceback=outcome.traceback,
            )

    pool.run_grouped(
        run_experiment,
        run_experiment_batch,
        pending,
        group_key=batch_group_key,
        on_outcome=on_outcome,
        cost=lambda task: task.sample_size,
    )
    if store is not None:
        # Resumed cells are written back too, so resuming an old study
        # migrates its results into the store for every later study.
        for task in tasks:
            key = task.cell_key
            if key in results and key not in hits:
                fp, identity = cell_ids[key]
                store.put_result(fp, results[key], identity)
    keys = [task.cell_key for task in tasks]
    return (
        [results[key] for key in keys if key in results],
        [failed[key] for key in keys if key in failed],
        resumed,
        answered,
    )


def run_study(
    config: StudyConfig,
    compute_optima: bool = True,
    progress: Union[bool, Callable[[str], None]] = False,
    checkpoint: Optional[object] = None,
    failure_policy: str = "fail_fast",
    retries: int = 0,
    trace_dir: Optional[object] = None,
    landscape_cache: Optional[object] = None,
    trace_level: str = "full",
    executor: Optional[str] = None,
    executor_bind: Optional[str] = None,
    min_workers: int = 0,
    result_store: Optional[object] = None,
) -> StudyResults:
    """Run the full study described by ``config``.

    Study-wide counters (``evaluations_total``, ``launch_failures_total``,
    the ``*_seconds_sum`` / ``*_seconds_count`` timing pairs, pool
    ``task_retries_total``, simulator and store counters) land in
    ``StudyResults.metadata["metrics"]``, counters only;
    :func:`repro.obs.to_prometheus` renders them.  Recording the run in a
    ledger is the caller's step (:func:`repro.obs.runs.build_manifest`
    and :func:`~repro.obs.runs.record_run`, as ``repro-study
    --run-ledger`` does).

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
    trace_level:
        What lands in ``trace_dir``: ``"spans"`` — hierarchical spans
        only (study → phase → worker-chunk → replication-group → cell;
        cheap enough that the vectorized batch paths stay
        enabled); ``"full"`` (default) — spans plus trajectory events.
        Ignored without a ``trace_dir``.  The study and phase spans run
        either way: their docs land in
        ``StudyResults.metadata["spans"]`` and time the telemetry's
        phases.  Never affects results.
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
        writes are counted in ``metadata["metrics"]``, and the hit
        count lands in ``StudyResults.metadata["store_hits"]``.
    """
    config.validate()
    if trace_level not in ("spans", "full"):
        raise ValueError(
            f"trace_level must be 'spans' or 'full', got {trace_level!r}"
        )
    if executor is not None and executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"executor must be one of {EXECUTOR_NAMES}, got {executor!r}"
        )
    emit = print if progress is True else (progress or None)
    telemetry = StudyTelemetry(emit=emit if callable(emit) else None)
    registry = MetricsRegistry()
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

        #: The store pre-scan: cached results and every cell's
        #: (fingerprint, identity) for write-back.
        store_hits: Dict[str, object] = {}
        cell_ids: Dict[str, Tuple[str, dict]] = {}
        if store is not None:
            with telemetry.phase("store"):
                store_hits, cell_ids = _CellFingerprints(config).lookup(
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
            if _dataset_cells_covered(config, covered):
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

        try:
            with exp_span:
                tasks = build_tasks(
                    config,
                    datasets,
                    trace_dir=trace_dir_str,
                    landscape_cache=cache_dir,
                    trace_level=trace_level,
                    span_parent=exp_ctx,
                    skip_data=covered,
                )
                if ckpt is not None:
                    # The planned shape, for read-only watchers; written
                    # once per checkpoint file (no-op on resume).
                    ckpt.record_plan({"total_cells": len(tasks)})
                results, failed_cells, resumed, answered = _run_cells(
                    tasks, pool, telemetry, ckpt, store, store_hits,
                    cell_ids,
                )
        finally:
            if ckpt is not None:
                ckpt.close()
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
        "total_experiments": len(tasks),
        "failed_cells": failed_cells,
        "resumed_from_checkpoint": resumed,
        "failure_policy": failure_policy,
        "executor": executor,
        "telemetry": telemetry.snapshot(),
        "spans": telemetry.span_docs(),
        "metrics": registry.to_json(),
        "trace_dir": str(trace_dir) if trace_dir is not None else None,
        "trace_level": trace_level if trace_dir is not None else None,
        "landscape_cache": cache_dir,
        "result_store": store_dir,
        "store_hits": answered,
    }
    return StudyResults(results=results, optima=optima, metadata=metadata)
