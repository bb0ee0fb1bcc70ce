"""Cross-cutting property-based tests of system-level invariants.

These complement the per-module suites with properties that span layers:
physical monotonicities of the performance model, conservation properties
of the experiment pipeline, and uniformity of the samplers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GTX_980, TITAN_V, simulate_runtimes
from repro.gpu.workload import WorkloadProfile
from repro.kernels import get_kernel
from repro.searchspace import paper_search_space

SPACE = paper_search_space()

config_strategy = st.tuples(
    st.integers(1, 16), st.integers(1, 16), st.integers(1, 16),
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
)


class TestModelPhysics:
    @given(config_strategy)
    @settings(max_examples=40, deadline=None)
    def test_more_work_never_faster(self, cfg):
        """Doubling the image area can never reduce runtime."""
        small = get_kernel("harris", 2048, 2048).profile()
        large = get_kernel("harris", 4096, 4096).profile()
        row = np.array([cfg])
        t_small = simulate_runtimes(small, TITAN_V, row).runtime_ms[0]
        t_large = simulate_runtimes(large, TITAN_V, row).runtime_ms[0]
        if np.isfinite(t_small):
            assert t_large >= t_small

    @given(config_strategy)
    @settings(max_examples=40, deadline=None)
    def test_more_flops_never_faster(self, cfg):
        """Adding arithmetic to the same access pattern cannot speed a
        kernel up."""
        base = WorkloadProfile(name="t", x_size=2048, y_size=2048,
                               flops_per_element=10.0)
        heavy = WorkloadProfile(name="t", x_size=2048, y_size=2048,
                                flops_per_element=1000.0)
        row = np.array([cfg])
        t_base = simulate_runtimes(base, TITAN_V, row).runtime_ms[0]
        t_heavy = simulate_runtimes(heavy, TITAN_V, row).runtime_ms[0]
        if np.isfinite(t_base):
            assert t_heavy >= t_base * 0.999

    @given(config_strategy)
    @settings(max_examples=40, deadline=None)
    def test_failure_iff_workgroup_limit(self, cfg):
        """Launch failure happens exactly when wg product > device max."""
        prof = get_kernel("add", 1024, 1024).profile()
        row = np.array([cfg])
        result = simulate_runtimes(prof, GTX_980, row)
        expected = cfg[3] * cfg[4] * cfg[5] > GTX_980.max_threads_per_block
        assert bool(result.launch_failure[0]) == expected

    @given(config_strategy, config_strategy)
    @settings(max_examples=30, deadline=None)
    def test_batch_consistency(self, cfg_a, cfg_b):
        """Simulating configs together or separately is identical."""
        prof = get_kernel("mandelbrot", 1024, 1024).profile()
        batch = simulate_runtimes(
            prof, TITAN_V, np.array([cfg_a, cfg_b])
        ).runtime_ms
        solo_a = simulate_runtimes(
            prof, TITAN_V, np.array([cfg_a])
        ).runtime_ms[0]
        solo_b = simulate_runtimes(
            prof, TITAN_V, np.array([cfg_b])
        ).runtime_ms[0]
        np.testing.assert_array_equal(batch, [solo_a, solo_b])


class TestSamplerUniformity:
    def test_unconstrained_sampling_uniform_per_axis(self):
        rng = np.random.default_rng(0)
        flats = SPACE.sample_flat(rng, 60_000, feasible_only=False)
        idx = SPACE.flats_to_index_matrix(flats)
        for d, param in enumerate(SPACE.parameters):
            counts = np.bincount(idx[:, d], minlength=param.cardinality)
            expected = 60_000 / param.cardinality
            # chi-square-ish slack: every value within 15% of uniform.
            assert np.all(np.abs(counts - expected) < 0.15 * expected)

    def test_feasible_sampling_never_violates(self):
        rng = np.random.default_rng(1)
        flats = SPACE.sample_flat(rng, 5_000, feasible_only=True)
        idx = SPACE.flats_to_index_matrix(flats)
        values = SPACE.index_matrix_to_features(idx)
        wg_product = values[:, 3] * values[:, 4] * values[:, 5]
        assert np.all(wg_product <= 256)


class TestBudgetProperty:
    @given(st.sampled_from(["genetic_algorithm", "bo_gp", "bo_tpe"]),
           st.integers(21, 60))
    @settings(max_examples=10, deadline=None)
    def test_any_budget_exactly_consumed(self, alg, budget):
        """Every live tuner consumes exactly its budget, for any budget."""
        from repro.gpu import SimulatedDevice
        from repro.search import Objective, make_tuner

        kernel = get_kernel("add", 1024, 1024)
        device = SimulatedDevice(
            TITAN_V, kernel.profile(), rng=np.random.default_rng(0)
        )
        objective = Objective(
            kernel.space(), lambda c: device.measure(c).runtime_ms, budget
        )
        result = make_tuner(alg).tune(objective, np.random.default_rng(1))
        assert result.samples_used == budget
        assert device.launches == budget
