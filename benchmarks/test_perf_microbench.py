"""Performance microbenchmarks of the substrate hot paths.

Not a paper artifact — these guard the throughput that makes the study
reproducible at all: the vectorized GPU performance model (exhaustive
2M-configuration optimum scans), the from-scratch ML models the tuners
refit inside their loops, and the statistics kernels.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.gpu import TITAN_V, simulate_runtimes
from repro.gpu.device import SimulatedDevice
from repro.gpu.landscape import clear_landscape_memo, load_or_compute_landscape
from repro.kernels import get_kernel
from repro.ml import (
    AdaptiveParzenEstimator1D,
    GaussianProcessRegressor,
    RandomForestRegressor,
)
from repro.searchspace import paper_search_space
from repro.stats import cles_smaller, mann_whitney_u

SPACE = paper_search_space()
HARRIS = get_kernel("harris").profile()


@pytest.fixture(scope="module")
def config_batch():
    rng = np.random.default_rng(0)
    flats = rng.integers(0, SPACE.size, 65536)
    return SPACE.index_matrix_to_features(
        SPACE.flats_to_index_matrix(flats)
    ).astype(np.int64)


def test_simulator_batch_throughput(benchmark, config_batch):
    """65k-configuration simulation pass (the optimum-scan workhorse)."""
    result = benchmark(simulate_runtimes, HARRIS, TITAN_V, config_batch)
    assert np.isfinite(result.runtime_ms).sum() > 0


def test_space_flat_decode_throughput(benchmark):
    flats = np.arange(262144)
    out = benchmark(SPACE.flats_to_index_matrix, flats)
    assert out.shape == (262144, 6)


def test_forest_fit(benchmark):
    """RF tuner's stage-1 fit at the largest paper budget (S-10 = 390)."""
    rng = np.random.default_rng(0)
    X = rng.integers(1, 17, (390, 6)).astype(float)
    y = rng.lognormal(0, 1, 390)

    def fit():
        return RandomForestRegressor(
            n_estimators=100, rng=np.random.default_rng(1)
        ).fit(X, y)

    forest = benchmark(fit)
    assert forest.is_fitted


def test_gp_fit_with_hyperopt(benchmark):
    """BO GP's periodic hyperparameter refit at its training-set cap."""
    rng = np.random.default_rng(0)
    X = rng.integers(1, 17, (128, 6)).astype(float)
    y = np.log(rng.lognormal(0, 1, 128))

    def fit():
        return GaussianProcessRegressor(
            n_restarts=1, rng=np.random.default_rng(1)
        ).fit(X, y)

    gp = benchmark(fit)
    assert gp.predict(X[:4]).shape == (4,)


def test_tpe_density_fit_and_score(benchmark):
    """One TPE per-dimension density fit + 24-candidate scoring round."""
    rng = np.random.default_rng(0)
    good = rng.integers(0, 16, 10)
    bad = rng.integers(0, 16, 30)

    def round_trip():
        l_est = AdaptiveParzenEstimator1D(0, 15).fit(good)
        g_est = AdaptiveParzenEstimator1D(0, 15).fit(bad)
        draws = l_est.sample(np.random.default_rng(1), 24)
        return l_est.log_prob(draws) - g_est.log_prob(draws)

    scores = benchmark(round_trip)
    assert scores.shape == (24,)


def test_tpe_batched_density_fit_and_score(benchmark):
    """One TPE suggestion's densities: both sides of a 6-dim space fitted
    as batches, 24 candidates drawn from l(x) and scored by l/g."""
    rng = np.random.default_rng(0)
    highs = np.array([15, 15, 15, 7, 7, 7])
    obs = rng.integers(0, highs + 1, size=(400, 6))
    good, bad = obs[:5], obs[5:]
    draw_rng = np.random.default_rng(1)  # TPE reuses its generator

    def round_trip():
        l_est = AdaptiveParzenEstimator1D(0, highs).fit(good)
        g_est = AdaptiveParzenEstimator1D(0, highs).fit(bad)
        draws = l_est.sample(draw_rng, 24)
        return l_est.log_prob(draws) - g_est.log_prob(draws)

    scores = benchmark(round_trip)
    assert scores.shape == (24, 6)


def test_mwu_at_paper_population_size(benchmark):
    """MWU over two 800-experiment populations (the paper's largest)."""
    rng = np.random.default_rng(0)
    a = rng.lognormal(0, 0.3, 800)
    b = rng.lognormal(0.05, 0.3, 800)
    result = benchmark(mann_whitney_u, a, b)
    assert 0 <= result.p_value <= 1


def test_cles_at_paper_population_size(benchmark):
    rng = np.random.default_rng(0)
    a = rng.lognormal(0, 0.3, 800)
    b = rng.lognormal(0.05, 0.3, 800)
    value = benchmark(cles_smaller, a, b)
    assert 0 <= value <= 1


def _uncached_index_matrix_to_features(space, indices):
    """The pre-cache implementation: rebuilds every lookup table per call."""
    indices = np.asarray(indices, dtype=np.int64)
    feats = np.empty(indices.shape, dtype=np.float64)
    for c, p in enumerate(space.parameters):
        col_values = np.array(
            [p.to_feature(p.value_at(int(i))) for i in range(p.cardinality)]
        )
        feats[:, c] = col_values[indices[:, c]]
    return feats


def test_index_matrix_to_features_per_iteration(benchmark):
    """Tuner-iteration-sized feature conversion (24 candidates/round)."""
    rng = np.random.default_rng(0)
    indices = SPACE.flats_to_index_matrix(rng.integers(0, SPACE.size, 24))
    out = benchmark(SPACE.index_matrix_to_features, indices)
    assert out.shape == (24, 6)


def test_feature_table_cache_speedup():
    """Cached per-space tables must beat per-call table rebuilds.

    The conversion runs once per tuner iteration (small batches) and per
    exhaustive-scan chunk, so the per-call rebuild of six Python-level
    lookup tables dominated at tuner-iteration batch sizes.
    """
    rng = np.random.default_rng(0)
    indices = SPACE.flats_to_index_matrix(rng.integers(0, SPACE.size, 24))
    calls = 300

    np.testing.assert_array_equal(
        SPACE.index_matrix_to_features(indices),
        _uncached_index_matrix_to_features(SPACE, indices),
    )

    best_cached = best_uncached = float("inf")
    for _ in range(5):  # best-of-5 to shrug off scheduler noise
        t0 = time.perf_counter()
        for _ in range(calls):
            SPACE.index_matrix_to_features(indices)
        best_cached = min(best_cached, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(calls):
            _uncached_index_matrix_to_features(SPACE, indices)
        best_uncached = min(best_uncached, time.perf_counter() - t0)

    speedup = best_uncached / best_cached
    assert speedup > 1.5, (
        f"cached feature tables give only {speedup:.2f}x over per-call "
        f"rebuilds (cached {best_cached * 1e3:.1f}ms vs uncached "
        f"{best_uncached * 1e3:.1f}ms for {calls} calls)"
    )


# -- landscape tables vs live simulation --------------------------------------
#
# The memory-mapped landscape-table fast path promises (ISSUE thresholds,
# asserted below and recorded in BENCH_landscape.json):
#   >= 10x on dataset pre-collection and the true-optimum scan (warm cache),
#   >=  3x on a measurement-bound tuner cell (a GA run).
# All three compare bit-identical outputs, so the speedup is pure
# simulator-pass elimination, not changed work.

BENCH_LANDSCAPE_PATH = Path(__file__).parent.parent / "BENCH_landscape.json"


def _record_bench(name: str, payload: dict) -> None:
    doc = {}
    if BENCH_LANDSCAPE_PATH.exists():
        try:
            doc = json.loads(BENCH_LANDSCAPE_PATH.read_text())
        except json.JSONDecodeError:
            doc = {}
    doc[name] = payload
    BENCH_LANDSCAPE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True))


def _best_of(n: int, fn) -> float:
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def warm_table(tmp_path_factory):
    """The harris/titan_v landscape, built once and reopened memory-mapped
    from the on-disk cache — the study's steady-state ('warm') shape."""
    cache = tmp_path_factory.mktemp("landscape-cache")
    clear_landscape_memo()
    load_or_compute_landscape(HARRIS, TITAN_V, SPACE, cache_dir=cache)
    clear_landscape_memo()  # drop the in-memory handle; force the mmap load
    table = load_or_compute_landscape(HARRIS, TITAN_V, SPACE, cache_dir=cache)
    assert table.source == "cache"
    yield table
    clear_landscape_memo()


def test_landscape_dataset_collection_speedup(warm_table):
    """20,000-row dataset pre-collection: one fancy-index vs decode+simulate.

    Feasible sampling is identical (and rng-stream-identical) on both
    paths, so it stays outside the timed region.
    """
    flats = SPACE.sample_flat(np.random.default_rng(0), 20000,
                              feasible_only=True)
    live = SimulatedDevice(TITAN_V, HARRIS, rng=np.random.default_rng(1))
    backed = SimulatedDevice(TITAN_V, HARRIS, rng=np.random.default_rng(1),
                             table=warm_table)

    def live_pass():
        return live.measure_flats(flats)

    # Generous best-of: the table pass is sub-millisecond, so scheduler
    # noise inflates it relatively more than the multi-ms live pass.
    t_live = _best_of(9, live_pass)
    t_table = _best_of(15, lambda: backed.measure_flats(flats))
    speedup = t_live / t_table
    _record_bench("dataset_precollection", {
        "rows": 20000,
        "live_ms": round(t_live * 1e3, 3),
        "table_ms": round(t_table * 1e3, 3),
        "speedup": round(speedup, 2),
        "threshold": 10.0,
    })
    assert speedup >= 10.0, (
        f"table-backed dataset collection is only {speedup:.1f}x faster "
        f"({t_table * 1e3:.2f}ms vs live {t_live * 1e3:.2f}ms)"
    )


def test_landscape_optimum_scan_speedup(warm_table):
    """Full 2M-configuration true-optimum scan: table argmin vs simulation."""
    from repro.experiments.optimum import find_true_optimum

    def live_scan():
        return find_true_optimum(HARRIS, TITAN_V, SPACE, use_cache=False)

    def table_scan():
        return find_true_optimum(HARRIS, TITAN_V, SPACE, use_cache=False,
                                 table=warm_table)

    assert live_scan() == table_scan()
    t_live = _best_of(1, live_scan)
    t_table = _best_of(3, table_scan)
    speedup = t_live / t_table
    _record_bench("true_optimum_scan", {
        "configurations": SPACE.size,
        "live_ms": round(t_live * 1e3, 1),
        "table_ms": round(t_table * 1e3, 1),
        "speedup": round(speedup, 2),
        "threshold": 10.0,
    })
    assert speedup >= 10.0, (
        f"table-backed optimum scan is only {speedup:.1f}x faster "
        f"({t_table * 1e3:.0f}ms vs live {t_live * 1e3:.0f}ms)"
    )


def test_landscape_tuner_cell_speedup(warm_table):
    """A measurement-bound GA cell (budget 400) end to end.

    This times the whole tuner loop — selection, crossover, mutation,
    bookkeeping — so the speedup is necessarily smaller than the pure
    per-measurement ratio.
    """
    from repro.search import Objective
    from repro.search.genetic import GeneticAlgorithmTuner

    def run_cell(device, with_table):
        objective = Objective(
            SPACE,
            lambda cfg: device.measure(cfg).runtime_ms,
            budget=400,
            measure_flats=device.measure_flats_each if with_table else None,
        )
        result = GeneticAlgorithmTuner().tune(
            objective, np.random.default_rng(7)
        )
        return result.best_runtime_ms

    def live_cell():
        device = SimulatedDevice(TITAN_V, HARRIS,
                                 rng=np.random.default_rng(2))
        return run_cell(device, with_table=False)

    def table_cell():
        device = SimulatedDevice(TITAN_V, HARRIS,
                                 rng=np.random.default_rng(2),
                                 table=warm_table)
        return run_cell(device, with_table=True)

    assert live_cell() == table_cell()
    t_live = _best_of(3, live_cell)
    t_table = _best_of(3, table_cell)
    speedup = t_live / t_table
    _record_bench("ga_tuner_cell", {
        "budget": 400,
        "live_ms": round(t_live * 1e3, 2),
        "table_ms": round(t_table * 1e3, 2),
        "speedup": round(speedup, 2),
        "threshold": 3.0,
    })
    assert speedup >= 3.0, (
        f"table-backed GA cell is only {speedup:.1f}x faster "
        f"({t_table * 1e3:.1f}ms vs live {t_live * 1e3:.1f}ms)"
    )
