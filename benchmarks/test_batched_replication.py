"""Batched replication engine benchmarks (ISSUE thresholds).

Records to ``BENCH_batched.json`` and asserts:

* a Random Search replication group (32 replications at S = 400) through
  ``run_experiment_batch`` is >= 20x faster than per-task
  ``run_experiment`` calls — the stacked fancy-index + row-wise argmin
  vs 32 full per-task setups and Python-loop dataset replays;
* ``Objective.evaluate_flats`` is >= 2x faster than the equivalent
  ``evaluate_flat`` loop at GA-generation scale on a table-backed cell;
* a many-small-cells ``run_study`` (grouped dispatch, shared per-group
  setup) runs >= 2x faster wall-clock than the same study as a plain
  per-task ``run_experiment`` loop over ``build_tasks``.

Every comparison asserts bit-identical outputs first, so the measured
speedups are pure overhead elimination, not changed work.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.experiments.runner import run_experiment, run_experiment_batch
from repro.experiments.study import _collect_datasets, build_tasks
from repro.gpu import TITAN_V
from repro.gpu.device import SimulatedDevice
from repro.gpu.landscape import clear_landscape_memo, load_or_compute_landscape
from repro.kernels import get_kernel
from repro.search import Objective

BENCH_BATCHED_PATH = Path(__file__).parent.parent / "BENCH_batched.json"

KERNEL = get_kernel("add", 512, 512)
PROFILE = KERNEL.profile()
SPACE = KERNEL.space()


def _record_bench(name: str, payload: dict) -> None:
    doc = {}
    if BENCH_BATCHED_PATH.exists():
        try:
            doc = json.loads(BENCH_BATCHED_PATH.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[name] = payload
    BENCH_BATCHED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A landscape cache holding the add/titan_v table, memoized in-process
    so neither side of any comparison pays the table build."""
    cache = tmp_path_factory.mktemp("landscape-cache")
    clear_landscape_memo()
    table = load_or_compute_landscape(PROFILE, TITAN_V, SPACE, cache_dir=cache)
    yield cache, table
    clear_landscape_memo()


def test_rs_replication_group_speedup(warm_cache):
    """32 Random Search replications at S=400: batched vs per-task."""
    cache, _ = warm_cache
    config = StudyConfig(
        design=ExperimentDesign(sample_sizes=(400,), experiments_at_largest=32),
        algorithms=("random_search",),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    datasets = _collect_datasets(config)
    tasks = build_tasks(config, datasets, landscape_cache=str(cache))
    assert len(tasks) == 32

    sequential = [run_experiment(t) for t in tasks]
    batched = run_experiment_batch(tasks)
    assert sequential == batched  # bit-identical before timing anything

    # The batched pass is a few milliseconds, so time 3 invocations per
    # sample (best-of-9) to keep scheduler jitter out of the ratio.
    t_seq = _best_of(3, lambda: [run_experiment(t) for t in tasks])
    t_batch = _best_of(
        9, lambda: [run_experiment_batch(tasks) for _ in range(3)]
    ) / 3
    speedup = t_seq / t_batch
    _record_bench("rs_replication_group", {
        "replications": 32,
        "sample_size": 400,
        "sequential_ms": round(t_seq * 1e3, 2),
        "batched_ms": round(t_batch * 1e3, 2),
        "speedup": round(speedup, 2),
        "threshold": 20.0,
    })
    assert speedup >= 20.0, (
        f"batched RS replication group is only {speedup:.1f}x faster "
        f"({t_batch * 1e3:.1f}ms vs sequential {t_seq * 1e3:.1f}ms)"
    )


def test_evaluate_flats_generation_speedup(warm_cache):
    """GA-generation-scale scoring: evaluate_flats vs an evaluate_flat loop."""
    _, table = warm_cache
    rng = np.random.default_rng(0)
    flats = SPACE.sample_flat(rng, 2000, feasible_only=True)

    def make_objective():
        device = SimulatedDevice(
            TITAN_V, PROFILE, rng=np.random.default_rng(3), table=table
        )
        return Objective(
            SPACE,
            lambda cfg: device.measure(cfg).runtime_ms,
            budget=4096,
            measure_flats=device.measure_flats_each,
        )

    def loop_pass():
        objective = make_objective()
        return [objective.evaluate_flat(int(f)) for f in flats]

    def batch_pass():
        objective = make_objective()
        return objective.evaluate_flats(flats)

    assert loop_pass() == [float(v) for v in batch_pass()]

    t_loop = _best_of(3, loop_pass)
    t_batch = _best_of(5, batch_pass)
    speedup = t_loop / t_batch
    _record_bench("evaluate_flats_generation", {
        "flats": 2000,
        "loop_ms": round(t_loop * 1e3, 2),
        "batched_ms": round(t_batch * 1e3, 2),
        "speedup": round(speedup, 2),
        "threshold": 2.0,
    })
    assert speedup >= 2.0, (
        f"evaluate_flats is only {speedup:.1f}x faster than the scalar loop "
        f"({t_batch * 1e3:.2f}ms vs {t_loop * 1e3:.2f}ms for 2000 flats)"
    )


def test_chunked_dispatch_study_speedup(warm_cache):
    """A many-small-cells study end to end: run_study vs a per-task loop."""
    cache, table = warm_cache
    config = StudyConfig(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=24),
        algorithms=("random_search",),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )

    def study():
        clear_optimum_cache()
        return run_study(
            config, compute_optima=False, landscape_cache=cache
        ).results

    def per_task_loop():
        datasets = _collect_datasets(config, {("add", "titan_v"): table})
        tasks = build_tasks(config, datasets, landscape_cache=str(cache))
        return [run_experiment(task) for task in tasks]

    assert study() == per_task_loop()

    t_seq = _best_of(3, per_task_loop)
    t_batch = _best_of(3, study)
    speedup = t_seq / t_batch
    _record_bench("chunked_dispatch_study", {
        "cells": 24,
        "sample_size": 25,
        "sequential_ms": round(t_seq * 1e3, 2),
        "batched_ms": round(t_batch * 1e3, 2),
        "speedup": round(speedup, 2),
        "threshold": 2.0,
    })
    assert speedup >= 2.0, (
        f"run_study is only {speedup:.1f}x faster than the per-task loop "
        f"({t_batch * 1e3:.1f}ms vs {t_seq * 1e3:.1f}ms)"
    )
