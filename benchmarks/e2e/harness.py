"""Run one workload for a time budget in this process and report medians.

``run.py`` starts this module in a fresh subprocess per workload::

    python -m benchmarks.e2e.harness --workload NAME --seed N \
        --seconds S --trace 0|1 --work-dir DIR [--span-dir DIR]

and reads the JSON object it prints last.  One run

1. prepares the workload untimed, in a spawned process: fills the warm
   landscape cache, runs the reference study (the same study on another
   measurement path; the timed studies must reproduce its digest), and
   seeds the result store;
2. repeats the study, each time with fresh checkpoint/cache/store dirs
   (removed again once the study is measured) and cleared per-process
   memos, while another study fits in the budget (at least
   :data:`MIN_STUDIES`); with ``--trace 1`` half the studies, in ABBA
   order, run with the layer hooks of :mod:`.layers` installed;
3. checks every study's results and reports the medians.

End-to-end times come from two hooks only: ``run_study`` is timed by
the caller, and ``ParallelMap.run``/``run_grouped`` record their first
entry and last return, which split the study into set-up, experiments
and finish.  They are reported at the reference host speed that
:class:`SpeedProbe` measures beside each study.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments import run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import clear_landscape_memo, load_or_compute_landscape
from repro.gpu.arch import get_architecture
from repro.kernels import get_kernel
from repro.store import ResultStore

from . import workloads as wl_mod
from .layers import (
    LayerTracer,
    Patches,
    install_layer_hooks,
    install_wire_hooks,
)

ROOT = Path(__file__).resolve().parents[2]
PINS_PATH = Path(__file__).with_name("baseline.json")

#: Timed studies per run at least; with tracing, of each kind.  Two keep
#: ``surrogate_grid`` (about 10 s a study) near the time budget.
MIN_STUDIES = 2

#: End-to-end metrics reported in the result object: name -> unit.  The
#: times are seconds at the reference host speed (:class:`SpeedProbe`).
E2E_UNITS: Dict[str, str] = {
    "study_s": "s",
    "setup_s": "s",
    "experiments_s": "s",
    "peak_rss_mb": "MB",
}

#: Printed beside them: the measured wall time and host speed the study
#: times derive from, and the checks that set ``correct``/``failed``.
PRINTED_UNITS: Dict[str, str] = {
    "study_wall_s": "s",
    "host_speed": "ratio",
    "failed_cell_frac": "ratio",
    "results_ok": "bool",
}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for kind in ("rf", "gp", "tpe"):
        units[f"ml.fit_s.{kind}"] = "s"
        units[f"ml.fit_calls.{kind}"] = "count"
        units[f"ml.predict_s.{kind}"] = "s"
    units.update({
        "gpu.measure_s": "s",
        "gpu.measure_calls": "count",
        "gpu.final_repeats_s": "s",
        "gpu.landscape_s": "s",
        "gpu.landscape_calls": "count",
        "gpu.tables_opened": "count",
        "experiments.optimum_s": "s",
        "experiments.dataset_s": "s",
        "runner.setup_s": "s",
    })
    for tuner in wl_mod.TUNERS:
        units[f"runner.cell_s.{tuner}"] = "s"
        units[f"runner.cell_ms_p50.{tuner}"] = "ms"
        units[f"runner.cell_ms_tail.{tuner}"] = "ms"
        units[f"search.evaluate_s.{tuner}"] = "s"
        units[f"search.self_s.{tuner}"] = "s"
    units.update({
        "parallel.dispatch_s": "s",
        "parallel.wire_frames_sent": "count",
        "parallel.wire_bytes_sent": "bytes",
        "parallel.wire_bytes_recv": "bytes",
        "parallel.wire_encode_s": "s",
        "parallel.wire_recv_wait_s": "s",
        "checkpoint.record_s": "s",
        "checkpoint.records": "count",
        "checkpoint.bytes": "bytes",
        "store.get_s": "s",
        "store.gets": "count",
        "store.hit_ratio": "ratio",
        "store.put_s": "s",
        "store.puts": "count",
        "study.finish_s": "s",
        "obs.span_s": "s",
        "obs.spans": "count",
        "obs.trace_bytes": "bytes",
        "trace_overhead_frac": "ratio",
    })
    return units


#: Per-layer metrics reported with ``--trace 1``: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = _per_layer_units()


# -- correctness -----------------------------------------------------------------


def result_digest(results) -> str:
    """sha256 of the sorted ``(cell_key, best_flat, final_runtime_ms,
    observed_best_ms, samples_used)`` rows; floats enter exactly."""
    rows = sorted(
        [
            f"{r.algorithm}/{r.kernel}/{r.arch}/{r.sample_size}/"
            f"{r.experiment}",
            int(r.best_flat),
            float(r.final_runtime_ms),
            float(r.observed_best_ms),
            int(r.samples_used),
        ]
        for r in results
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def bad_cells(results) -> List[str]:
    """Cells that used a budget other than S or report a non-finite
    final runtime."""
    return [
        f"{r.algorithm}/{r.kernel}/{r.arch}/{r.sample_size}/{r.experiment}"
        for r in results
        if int(r.samples_used) != int(r.sample_size)
        or not math.isfinite(float(r.final_runtime_ms))
    ]


def load_pins() -> dict:
    """Pinned digests for the default seed (``baseline.json``)."""
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


# -- one study -------------------------------------------------------------------


@dataclass
class StudyRun:
    """Timings and outcome of one timed study."""

    traced: bool
    wall_s: float
    setup_s: float
    experiments_s: float
    finish_s: float
    cells: int
    failed: int
    digest: str
    #: Digest of the cells the reference study also runs.
    reference_digest: str
    #: :attr:`SpeedProbe.scale` measured while the study ran.
    scale: float = 1.0
    checkpoint_bytes: int = 0
    trace_bytes: int = 0
    store_hits: int = 0
    tracer: Optional[LayerTracer] = None
    errors: List[str] = field(default_factory=list)


#: Iterations of the host-speed probe loop.
PROBE_LOOP = 3000
#: Seconds between two probe samples.
PROBE_PERIOD_S = 0.05
#: The probe loop's median duration on the reference host (the 2-core VM
#: the baseline was recorded on, in its quiet periods).
PROBE_REF_S = 2.4e-4


class SpeedProbe:
    """Times a fixed pure-Python loop on a thread beside a running study.

    The CPU speed of a shared host drifts over minutes: on the 2-core VM
    the baseline comes from, one fixed study repeated in one process for
    7 minutes varied by 23-30 % (quartile distance over median), with no
    CPU time stolen, so repetition inside one run cannot average it out.
    The loop's median duration during each study tracked the study's
    time (correlation 0.93, slope 1.05 on log scales) and left a 7 %
    spread.  :attr:`scale` converts the study's times to the reference
    host speed.  The loop holds the interpreter lock for ~0.25 ms every
    50 ms, so the study loses under 1 % to it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while True:
            start = clock()
            x = 0
            for i in range(PROBE_LOOP):
                x = (x + i * 7) % 1000003
            self.samples.append(clock() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        """Reference loop time over the measured one: seconds measured
        times this are seconds at the reference speed."""
        return PROBE_REF_S / statistics.median(self.samples)


class StudyClock:
    """First entry into / last return from the experiments dispatch."""

    def __init__(self) -> None:
        self.first: Optional[float] = None
        self.last: Optional[float] = None

    def install(self, patches: Patches, on_executor=None) -> None:
        for target in (
            "repro.parallel.pool:ParallelMap.run",
            "repro.parallel.pool:ParallelMap.run_grouped",
        ):
            patches.wrap(target, self._dispatch)
        if on_executor is not None:
            patches.wrap(
                "repro.experiments.study:make_executor",
                lambda fn: _after(fn, on_executor),
            )

    def _dispatch(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first is None:
                self.first = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.last = time.perf_counter()

        return wrapper


def _after(fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result

    return wrapper


def _dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Session:
    """One workload's prepared state inside one benchmark run."""

    def __init__(self, workload: wl_mod.Workload, work_dir: Path) -> None:
        self.workload = workload
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.warm_dir = self.work_dir / "landscapes"
        self.full_store = self.work_dir / "store-full"
        self.reference = ""
        #: Store entries (relative paths) each study starts with.
        self.half_entries: List[str] = []
        self._count = 0

    # -- untimed preparation --------------------------------------------------
    def prepare(self) -> None:
        """Fill the warm cache, run the reference study, seed the store.

        This runs in a spawned process, so its memory never counts toward
        this process's peak RSS.
        """
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            self.reference, self.half_entries = pool.apply(
                _prepare, (self.workload, self.warm_dir, self.full_store)
            )

    def _half_store(self, dest: Path) -> None:
        """Entries are never rewritten in place (writes replace the
        file), so hard links give the study a private half store."""
        for rel in self.half_entries:
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            os.link(self.full_store / rel, dest / rel)

    # -- socket workers -------------------------------------------------------
    def _spawn_workers(self, study_dir: Path, traced: bool) -> list:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        procs = []
        try:
            for i in range(self.workload.socket_workers):
                cmd = [
                    sys.executable, "-m", "benchmarks.e2e.worker_shim",
                    "--stats", str(study_dir / f"worker{i}.json"),
                ]
                if traced:
                    cmd.append("--trace")
                procs.append(
                    subprocess.Popen(
                        cmd, cwd=ROOT, env=env, text=True,
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    )
                )
            for proc in procs:
                if proc.stdout.readline().strip() != "ready":
                    raise RuntimeError("socket worker failed to start")
        except BaseException:
            _stop_workers(procs)
            raise
        return procs

    # -- one timed study ------------------------------------------------------
    def study(self, traced: bool) -> StudyRun:
        wl = self.workload
        index = self._count
        self._count += 1
        study_dir = self.work_dir / f"study{index}"
        study_dir.mkdir()
        checkpoint = study_dir / "checkpoint.jsonl"
        trace_dir = study_dir / "trace"
        kwargs: dict = dict(
            failure_policy="collect",
            checkpoint=str(checkpoint),
            result_store=False,
        )
        if wl.landscape == "cold":
            kwargs["landscape_cache"] = str(study_dir / "landscapes")
        elif wl.landscape == "warm":
            kwargs["landscape_cache"] = str(self.warm_dir)
        if wl.store_half:
            self._half_store(study_dir / "store")
            kwargs["result_store"] = str(study_dir / "store")
            kwargs["trace_dir"] = str(trace_dir)
            kwargs["trace_level"] = "spans"
        procs: list = []
        on_executor = None
        if wl.socket_workers:
            kwargs["executor"] = "socket"
            kwargs["min_workers"] = wl.socket_workers
            procs = self._spawn_workers(study_dir, traced)

            def on_executor(executor):
                for proc in procs:
                    proc.stdin.write(executor.address + "\n")
                    proc.stdin.close()

        tracer = (
            LayerTracer(f"{wl.name}-{wl.config.root_seed}-{index}")
            if traced
            else None
        )
        clock = StudyClock()
        clear_landscape_memo()
        clear_optimum_cache()
        gc.collect()
        try:
            with Patches() as patches:
                clock.install(patches, on_executor)
                if tracer is not None:
                    install_layer_hooks(patches, tracer)
                    install_wire_hooks(patches, tracer)
                with SpeedProbe() as probe:
                    start = time.perf_counter()
                    results = run_study(wl.config, **kwargs)
                    end = time.perf_counter()
        finally:
            errors = _stop_workers(procs)
        if tracer is not None:
            for i in range(len(procs)):
                stats = study_dir / f"worker{i}.json"
                if stats.exists():
                    tracer.merge_json(json.loads(stats.read_text()))
        failed = results.metadata.get("failed_cells") or []
        bad = bad_cells(results.results)
        cells = len(results.results) + len(failed)
        if cells != wl.cells:
            errors.append(f"{cells} cells returned, {wl.cells} planned")
        if clock.first is None:
            clock.first = clock.last = end
        run = StudyRun(
            traced=traced,
            wall_s=end - start,
            setup_s=clock.first - start,
            experiments_s=clock.last - clock.first,
            finish_s=end - clock.last,
            cells=wl.cells,
            failed=len(failed) + len(bad),
            digest=result_digest(results.results),
            reference_digest=result_digest(
                r for r in results.results
                if r.algorithm in reference_algorithms(wl)
            ),
            scale=probe.scale,
            checkpoint_bytes=_dir_bytes(checkpoint),
            trace_bytes=_dir_bytes(trace_dir),
            store_hits=int(results.metadata.get("store_hits") or 0),
            tracer=tracer,
            errors=errors + [f"bad cell {key}" for key in bad[:5]],
        )
        # Untimed, so that every study starts from the same empty work tree.
        shutil.rmtree(study_dir)
        return run


def reference_algorithms(wl: wl_mod.Workload) -> Tuple[str, ...]:
    """Tuners the reference study runs.

    Live, the surrogate tuners would cost as much as in a timed study, so
    the cold-table workload's reference runs only the model-free tuners,
    which check the measurement path on their own.
    """
    return wl_mod.RSGA if wl.landscape == "cold" else wl.config.algorithms


def _prepare(
    wl: wl_mod.Workload, warm_dir: Path, full_store: Path
) -> Tuple[str, List[str]]:
    """:meth:`Session.prepare`'s body: the reference digest and the
    entries of the half-warm store.

    The reference is the same study run serially on the other
    measurement path, so every seed is checked against an independent
    route to the same numbers: table-backed for the live workload, live
    for the cold-table one (its model-free cells), and serial without
    store or socket for the warm pair.
    """
    cfg = replace(wl.config, algorithms=reference_algorithms(wl))
    if wl.landscape == "warm":
        for kname in cfg.kernels:
            kernel = get_kernel(kname, cfg.image_x, cfg.image_y)
            for aname in cfg.archs:
                load_or_compute_landscape(
                    kernel.profile(), get_architecture(aname),
                    kernel.space(), cache_dir=warm_dir,
                )
    results = run_study(
        cfg,
        failure_policy="collect",
        landscape_cache=None if wl.landscape == "cold" else warm_dir,
        result_store=str(full_store) if wl.store_half else False,
    )
    half = []
    if wl.store_half:
        # Odd replications of every (tuner, kernel, arch, S) group: the
        # same share of every group's cost, whatever the seed.  (Picking
        # by fingerprint would make the work each study runs seed-random.)
        for path, doc, _reason in ResultStore(full_store).entries():
            if doc is not None and doc["identity"]["experiment"] % 2 == 1:
                half.append(str(path.relative_to(full_store)))
    return result_digest(results.results), half


def _stop_workers(procs: list, timeout: float = 60.0) -> List[str]:
    """Close every worker's stdin and wait for it; kill stragglers."""
    errors = []
    for proc in procs:
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
    for proc in procs:
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "killed"
        if proc.stdout:
            proc.stdout.close()
        if code != 0:
            errors.append(f"socket worker exited with {code}")
    return errors


# -- per-layer metrics -----------------------------------------------------------


def span_self_times(spans: List[tuple]) -> Dict[str, float]:
    """Span id -> self seconds (duration minus its children's)."""
    child: Dict[str, float] = {}
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    return {
        sid: (end - start) - child.get(sid, 0.0)
        for sid, _parent, _name, start, end in spans
    }


def experiments_self_sum(spans: List[tuple]) -> float:
    """Sum of self times of every span inside the experiments dispatch,
    the dispatch's own self time included."""
    parent_of = {sid: parent for sid, parent, *_ in spans}
    name_of = {sid: name for sid, _parent, name, *_ in spans}
    self_s = span_self_times(spans)
    total = 0.0
    for sid in parent_of:
        node: Optional[str] = sid
        while node is not None and name_of.get(node) != "parallel.dispatch":
            node = parent_of.get(node)
        if node is not None:
            total += self_s[sid]
    return total


def study_layer_metrics(run: StudyRun) -> Dict[str, float]:
    """Per-layer metrics of one traced study (cell percentiles excluded;
    they are pooled across the run's traced studies)."""
    tr = run.tracer
    inc, self_s, calls, ctr = tr.inclusive, tr.self_s, tr.calls, tr.counters
    out: Dict[str, float] = {}
    for kind in ("rf", "gp", "tpe"):
        out[f"ml.fit_s.{kind}"] = inc.get(f"ml.fit.{kind}", 0.0)
        out[f"ml.fit_calls.{kind}"] = calls.get(f"ml.fit.{kind}", 0)
        out[f"ml.predict_s.{kind}"] = inc.get(f"ml.predict.{kind}", 0.0)
    out["gpu.measure_s"] = inc.get("gpu.measure", 0.0)
    out["gpu.measure_calls"] = calls.get("gpu.measure", 0)
    out["gpu.final_repeats_s"] = inc.get("gpu.final_repeats", 0.0)
    out["gpu.landscape_s"] = inc.get("gpu.landscape", 0.0)
    out["gpu.landscape_calls"] = calls.get("gpu.landscape", 0)
    out["gpu.tables_opened"] = ctr.get("gpu.tables_opened", 0)
    out["experiments.optimum_s"] = inc.get("experiments.optimum", 0.0)
    out["experiments.dataset_s"] = inc.get("experiments.dataset", 0.0)
    out["runner.setup_s"] = inc.get("runner.setup", 0.0)
    for tuner in wl_mod.TUNERS:
        out[f"runner.cell_s.{tuner}"] = inc.get(f"runner.cell.{tuner}", 0.0)
        out[f"search.evaluate_s.{tuner}"] = inc.get(
            f"search.evaluate.{tuner}", 0.0
        )
        out[f"search.self_s.{tuner}"] = self_s.get(f"runner.cell.{tuner}", 0.0)
    out["parallel.dispatch_s"] = self_s.get("parallel.dispatch", 0.0)
    out["parallel.wire_frames_sent"] = ctr.get("wire.send_calls", 0)
    out["parallel.wire_bytes_sent"] = ctr.get("wire.send_bytes", 0)
    out["parallel.wire_bytes_recv"] = ctr.get("wire.recv_bytes_bytes", 0)
    out["parallel.wire_encode_s"] = ctr.get("wire.encode_s", 0.0)
    out["parallel.wire_recv_wait_s"] = ctr.get("wire.recv_s", 0.0)
    out["checkpoint.record_s"] = inc.get("checkpoint.record", 0.0)
    out["checkpoint.records"] = calls.get("checkpoint.record", 0)
    out["checkpoint.bytes"] = run.checkpoint_bytes
    gets = calls.get("store.get", 0)
    out["store.get_s"] = inc.get("store.get", 0.0)
    out["store.gets"] = gets
    out["store.hit_ratio"] = run.store_hits / gets if gets else 0.0
    out["store.put_s"] = inc.get("store.put", 0.0)
    out["store.puts"] = calls.get("store.put", 0)
    out["study.finish_s"] = run.finish_s
    out["obs.span_s"] = inc.get("obs.span", 0.0)
    out["obs.spans"] = calls.get("obs.span", 0)
    out["obs.trace_bytes"] = run.trace_bytes
    return out


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it
    (the median when there are fewer than twenty samples)."""
    if n < 20:
        return 50
    return int(math.floor(100.0 * (1.0 - 10.0 / n)))


def cell_percentiles(
    traced: List[StudyRun],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Median and tail cell times per tuner, pooled over traced studies,
    plus the percentile each tail was taken at."""
    out: Dict[str, float] = {}
    pcts: Dict[str, int] = {}
    for tuner in wl_mod.TUNERS:
        pooled = [
            s * 1e3 for run in traced for s in run.tracer.cell_s.get(tuner, [])
        ]
        pcts[tuner] = tail_percentile(len(pooled))
        out[f"runner.cell_ms_p50.{tuner}"] = (
            float(np.percentile(pooled, 50)) if pooled else 0.0
        )
        out[f"runner.cell_ms_tail.{tuner}"] = (
            float(np.percentile(pooled, pcts[tuner])) if pooled else 0.0
        )
    return out, pcts


# -- provenance ------------------------------------------------------------------


def _git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_rev": _git_rev(),
        "seed": seed,
    }


# -- one benchmark run -----------------------------------------------------------


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def traced_at(index: int) -> bool:
    """Whether study ``index`` of a traced run is traced: ABBA order
    (untraced, traced, traced, untraced, ...).  Each consecutive pair
    holds one study of each kind and which runs first alternates, so
    drift within a run and the first study's warm-up do not all land on
    one side of the overhead."""
    return index % 4 in (1, 2)


def run_workload(
    workload: wl_mod.Workload,
    seconds: float,
    trace: bool,
    work_dir: Path,
    span_dir: Optional[Path] = None,
    min_studies: Optional[int] = None,
    pinned: Optional[str] = None,
) -> dict:
    """Prepare ``workload``, repeat its study for ``seconds`` (untraced,
    or in untraced/traced pairs), and summarize.

    At least ``min_studies`` studies run (of each kind when tracing).
    ``pinned`` is the digest the default seed must reproduce.
    """
    session = Session(workload, work_dir)
    session.prepare()
    step = 2 if trace else 1
    need = step * (min_studies or MIN_STUDIES)
    runs: List[StudyRun] = []
    start = time.perf_counter()
    while len(runs) < need or (
        # Start another study (pair) only if it should end within budget.
        time.perf_counter() - start
        + step * _median([r.wall_s for r in runs]) <= seconds
    ):
        for _ in range(step):
            run = session.study(traced=trace and traced_at(len(runs)))
            runs.append(run)
            if len(runs) == 1:
                # One study per process, as the CLI runs it: later studies
                # would add whatever the previous ones left behind.
                peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0
                )
            print(
                f"{workload.name} study {len(runs)}"
                f"{' traced' if run.traced else ''}: wall {run.wall_s:.3f}s "
                f"setup {run.setup_s:.3f}s "
                f"experiments {run.experiments_s:.3f}s "
                f"host_speed {run.scale:.3f}",
                file=sys.stderr,
            )

    plain = [r for r in runs if not r.traced]
    traced = [r for r in runs if r.traced]
    errors = [e for r in runs for e in r.errors]
    digests = {r.digest for r in runs}
    if len(digests) > 1:
        errors.append(f"studies disagree: {len(digests)} distinct digests")
    if {r.reference_digest for r in runs} != {session.reference}:
        errors.append("digest differs from the reference study")
    if pinned is not None and digests != {pinned}:
        errors.append("digest differs from the pinned default-seed digest")
    attempted = sum(r.cells for r in runs)
    failed = sum(r.failed for r in runs)
    correct = not errors and failed == 0

    e2e = {
        "study_s": _median([r.wall_s * r.scale for r in plain]),
        "setup_s": _median([r.setup_s * r.scale for r in plain]),
        "experiments_s": _median([r.experiments_s * r.scale for r in plain]),
        "peak_rss_mb": peak_rss_mb,
        "study_wall_s": _median([r.wall_s for r in plain]),
        "host_speed": _median([r.scale for r in plain]),
        "failed_cell_frac": failed / attempted,
        "results_ok": 1.0 if correct else 0.0,
    }
    out = {
        "workload": workload.name,
        "seed": workload.config.root_seed,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "studies": len(plain),
        "traced_studies": len(traced),
        "digest": sorted(digests)[0] if len(digests) == 1 else None,
        "errors": errors,
        "e2e": e2e,
        "provenance": provenance(workload.config.root_seed),
    }
    if traced:
        per_study = [study_layer_metrics(r) for r in traced]
        layers = {
            name: _median([m[name] for m in per_study])
            for name in per_study[0]
        }
        cells, out["tail_pct"] = cell_percentiles(traced)
        layers.update(cells)
        # Each traced study against the untraced one of its pair.
        pairs = [
            (a, b) if b.traced else (b, a)
            for a, b in zip(runs[::2], runs[1::2])
        ]
        layers["trace_overhead_frac"] = _median(
            [(t.wall_s * t.scale) / (u.wall_s * u.scale) - 1.0
             for u, t in pairs]
        )
        out["per_layer"] = {name: layers[name] for name in PER_LAYER_UNITS}
        out["traced_experiments_s"] = _median(
            [r.experiments_s for r in traced]
        )
        out["self_sum_s"] = _median(
            [experiments_self_sum(r.tracer.spans) for r in traced]
        )
        if span_dir is not None:
            out["span_file"] = str(write_spans(traced[-1].tracer, span_dir,
                                               workload))
    return out


def write_spans(tracer: LayerTracer, span_dir: Path, workload) -> Path:
    """One JSON line per span of ``tracer``, with its self time."""
    span_dir = Path(span_dir)
    span_dir.mkdir(parents=True, exist_ok=True)
    path = span_dir / f"{workload.name}-seed{workload.config.root_seed}.jsonl"
    self_s = span_self_times(tracer.spans)
    with path.open("w") as fh:
        for doc in tracer.span_docs():
            doc["self"] = self_s[doc["id"]]
            fh.write(json.dumps(doc) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one e2e benchmark workload")
    parser.add_argument("--workload", required=True, choices=wl_mod.NAMES)
    parser.add_argument("--seed", type=int, default=wl_mod.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--span-dir", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = wl_mod.build(args.workload, args.seed)
    pins = load_pins()
    pinned = (
        pins.get("digests", {}).get(args.workload)
        if args.seed == pins.get("seed")
        else None
    )
    try:
        out = run_workload(
            workload, args.seconds, bool(args.trace), args.work_dir,
            span_dir=args.span_dir, pinned=pinned,
        )
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
