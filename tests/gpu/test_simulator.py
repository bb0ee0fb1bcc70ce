"""Unit and property tests for the composed GPU performance model."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    GTX_980,
    RTX_TITAN,
    TITAN_V,
    WorkloadProfile,
    simulate_runtimes,
)
from repro.gpu.landscape import BLOCK_ROWS
from repro.gpu.simulator import SimulationResult, simulate_columns
from repro.kernels import get_kernel
from repro.obs.metrics import global_registry
from repro.searchspace import IntegerParameter, SearchSpace

ADD = get_kernel("add").profile()
HARRIS = get_kernel("harris").profile()
MANDEL = get_kernel("mandelbrot").profile()

GOOD = np.array([[1, 1, 1, 8, 4, 1]])
TINY_BLOCK = np.array([[1, 1, 1, 1, 1, 1]])
OVER_LIMIT = np.array([[1, 1, 1, 8, 8, 8]])  # wg product 512 > 256

# Synthetic profiles for model branches the paper's three kernels leave
# off: column-major output, per-thread shared memory and a deep z axis.
TRANSPOSE = WorkloadProfile(
    name="transpose", x_size=4096, y_size=4096,
    reads_per_element=1.0, writes_per_element=1.0, writes_transposed=True,
    flops_per_element=0.5, base_registers=14.0, registers_per_element=2.0,
)
REDUCTION = WorkloadProfile(
    name="reduction", x_size=4096, y_size=4096,
    reads_per_element=1.0, writes_per_element=0.0, flops_per_element=1.0,
    base_registers=16.0, registers_per_element=1.0,
)
STENCIL_3D = WorkloadProfile(
    name="stencil3d", x_size=256, y_size=256, z_size=256,
    stencil_radius=1, flops_per_element=8.0, divergence_cv=0.0,
    base_registers=30.0, registers_per_element=5.0,
)


config_strategy = st.tuples(
    st.integers(1, 16), st.integers(1, 16), st.integers(1, 16),
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
)


class TestBasics:
    def test_runtime_positive_and_finite_for_valid_config(self):
        r = simulate_runtimes(ADD, TITAN_V, GOOD)
        assert np.isfinite(r.runtime_ms[0])
        assert r.runtime_ms[0] > 0

    def test_deterministic(self):
        a = simulate_runtimes(ADD, TITAN_V, GOOD).runtime_ms
        b = simulate_runtimes(ADD, TITAN_V, GOOD).runtime_ms
        np.testing.assert_array_equal(a, b)

    def test_over_workgroup_limit_fails(self):
        r = simulate_runtimes(ADD, TITAN_V, OVER_LIMIT)
        assert r.launch_failure[0]
        assert np.isinf(r.runtime_ms[0])

    def test_1d_row_accepted(self):
        r = simulate_runtimes(ADD, TITAN_V, GOOD[0])
        assert r.runtime_ms.shape == (1,)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            simulate_runtimes(ADD, TITAN_V, np.ones((3, 5), dtype=int))

    def test_batch_matches_scalar(self):
        batch = np.vstack([GOOD, TINY_BLOCK])
        r_batch = simulate_runtimes(ADD, TITAN_V, batch).runtime_ms
        r0 = simulate_runtimes(ADD, TITAN_V, GOOD).runtime_ms[0]
        r1 = simulate_runtimes(ADD, TITAN_V, TINY_BLOCK).runtime_ms[0]
        assert r_batch[0] == pytest.approx(r0)
        assert r_batch[1] == pytest.approx(r1)


class TestPhysicalSanity:
    def test_add_is_memory_bound_at_good_config(self):
        r = simulate_runtimes(ADD, TITAN_V, GOOD)
        assert r.memory_time_ms[0] > r.compute_time_ms[0]

    def test_mandelbrot_is_compute_bound(self):
        r = simulate_runtimes(MANDEL, TITAN_V, GOOD)
        assert r.compute_time_ms[0] > r.memory_time_ms[0]

    def test_add_roofline_bound(self):
        """The good Add config cannot beat the bandwidth roofline."""
        r = simulate_runtimes(ADD, TITAN_V, GOOD)
        compulsory_gb = ADD.elements * 3 * 4 / 1e9
        floor_ms = compulsory_gb / TITAN_V.dram_bandwidth_gbs * 1e3
        assert r.runtime_ms[0] >= floor_ms

    def test_newer_archs_faster_on_good_config(self):
        old = simulate_runtimes(ADD, GTX_980, GOOD).runtime_ms[0]
        volta = simulate_runtimes(ADD, TITAN_V, GOOD).runtime_ms[0]
        turing = simulate_runtimes(ADD, RTX_TITAN, GOOD).runtime_ms[0]
        assert volta < old
        assert turing < old

    def test_tiny_blocks_much_slower(self):
        good = simulate_runtimes(HARRIS, TITAN_V, GOOD).runtime_ms[0]
        tiny = simulate_runtimes(HARRIS, TITAN_V, TINY_BLOCK).runtime_ms[0]
        assert tiny > 5 * good

    def test_launch_overhead_floor(self):
        small = get_kernel("add", 64, 64).profile()
        r = simulate_runtimes(small, TITAN_V, GOOD)
        assert r.runtime_ms[0] >= TITAN_V.launch_overhead_us * 1e-3

    def test_optima_differ_across_architectures(self):
        """The cross-architecture comparison is only meaningful if optima
        move between devices."""
        rng = np.random.default_rng(0)
        cfgs = np.column_stack(
            [
                rng.integers(1, 17, 4000), rng.integers(1, 17, 4000),
                rng.integers(1, 17, 4000), rng.integers(1, 9, 4000),
                rng.integers(1, 9, 4000), rng.integers(1, 9, 4000),
            ]
        )
        best = {}
        for arch in (GTX_980, TITAN_V, RTX_TITAN):
            rt = simulate_runtimes(HARRIS, arch, cfgs).runtime_ms
            order = np.argsort(rt)
            best[arch.codename] = set(map(tuple, cfgs[order[:20]]))
        # Top-20 sets must not be identical across all three.
        assert (
            best["gtx_980"] != best["titan_v"]
            or best["titan_v"] != best["rtx_titan"]
        )

    @given(config_strategy)
    @settings(max_examples=100, deadline=None)
    def test_runtime_invariants(self, cfg):
        row = np.array([cfg])
        r = simulate_runtimes(HARRIS, TITAN_V, row)
        wg_product = cfg[3] * cfg[4] * cfg[5]
        if wg_product > 256:
            assert r.launch_failure[0]
            assert np.isinf(r.runtime_ms[0])
        else:
            assert not r.launch_failure[0]
            assert np.isfinite(r.runtime_ms[0])
            assert r.runtime_ms[0] > 0
            assert 0.0 <= r.occupancy[0] <= 1.0


class TestWorkloadFeatures:
    def test_transposed_writes_cost_more(self):
        """Strided column-major writes make a transpose slower than the
        equivalent copy."""
        copy = dataclasses.replace(
            TRANSPOSE, name="copy", writes_transposed=False
        )
        t_ms = simulate_runtimes(TRANSPOSE, TITAN_V, GOOD).runtime_ms[0]
        c_ms = simulate_runtimes(copy, TITAN_V, GOOD).runtime_ms[0]
        assert t_ms > 1.2 * c_ms

    def test_older_arch_punished_harder(self):
        """Relative to each arch's bandwidth floor, Maxwell pays more for
        transposed writes than Volta."""
        ratios = {}
        for arch in (GTX_980, TITAN_V):
            floor_ms = TRANSPOSE.elements * 8 / (arch.dram_bandwidth_gbs * 1e6)
            runtime = simulate_runtimes(TRANSPOSE, arch, GOOD).runtime_ms[0]
            ratios[arch.codename] = runtime / floor_ms
        assert ratios["gtx_980"] > ratios["titan_v"]

    @pytest.mark.parametrize(
        "block", [(8, 8), (16, 8), (16, 16)], ids=["8x8", "16x8", "16x16"]
    )
    def test_shared_memory_limits_occupancy(self, block):
        """96 B of shared memory per thread caps an SM at 1,024 resident
        threads (half of Volta's warp slots) whatever the block shape;
        twice that overflows a 256-thread block's limit."""
        cfg = np.array([[1, 1, 1, *block, 1]])
        free = simulate_runtimes(REDUCTION, TITAN_V, cfg)
        assert free.occupancy[0] == pytest.approx(1.0)
        capped = dataclasses.replace(REDUCTION, shared_bytes_per_thread=96.0)
        assert simulate_runtimes(capped, TITAN_V, cfg).occupancy[0] == (
            pytest.approx(0.5)
        )
        too_big = dataclasses.replace(
            REDUCTION, shared_bytes_per_thread=200.0
        )
        failed = simulate_runtimes(too_big, TITAN_V, cfg).launch_failure[0]
        assert failed == (block[0] * block[1] * 200 >
                          TITAN_V.shared_mem_per_block_bytes)

    def test_z_parameters_matter(self):
        """On a deep grid, varying wg_z changes runtime materially —
        unlike on the paper's 2-D kernels where z is nearly dead."""
        base = np.array([[1, 1, 1, 8, 4, 1]])
        deep = np.array([[1, 1, 1, 8, 4, 4]])
        t_base = simulate_runtimes(STENCIL_3D, TITAN_V, base).runtime_ms[0]
        t_deep = simulate_runtimes(STENCIL_3D, TITAN_V, deep).runtime_ms[0]
        assert abs(t_deep - t_base) / t_base > 0.05

        # Contrast: on a 2-D kernel the same change only dilutes
        # occupancy...
        add = get_kernel("add", 4096, 4096).profile()
        b2 = simulate_runtimes(add, TITAN_V, base).runtime_ms[0]
        d2 = simulate_runtimes(add, TITAN_V, deep).runtime_ms[0]
        assert d2 > b2
        # ...but the 3-D grid's z axis is a useful one: some deeper
        # work-group improves on the flat one somewhere.
        zs = np.array(
            [[1, 1, z, 8, 4, w] for z in (1, 2, 4) for w in (1, 2, 4)]
        )
        t = simulate_runtimes(STENCIL_3D, TITAN_V, zs).runtime_ms
        assert t.min() < t_base * 1.01


#: 7,680 configurations; ``wg_z`` up to 8 puts some work-group products
#: over 256, so blocks mix launches and launch failures.
GRID_SPACE = SearchSpace([
    IntegerParameter("thread_x", 1, 3),
    IntegerParameter("thread_y", 1, 2),
    IntegerParameter("thread_z", 1, 2),
    IntegerParameter("wg_x", 1, 8),
    IntegerParameter("wg_y", 1, 8),
    IntegerParameter("wg_z", 4, 8),
])


def _counts():
    registry = global_registry()
    return (
        registry.counter("simulator_evals_total").value,
        registry.counter("simulator_launch_failures_total").value,
    )


def _counted(fn, *args):
    before = _counts()
    result = fn(*args)
    after = _counts()
    return result, (after[0] - before[0], after[1] - before[1])


class TestGridPath:
    """Broadcast grid columns and the per-row matrix run one model body:
    every result field and counter increment must agree bit for bit."""

    @pytest.mark.parametrize("max_rows", [300, BLOCK_ROWS])
    @pytest.mark.parametrize(
        "profile, arch",
        [(ADD, GTX_980), (HARRIS, TITAN_V), (MANDEL, RTX_TITAN),
         (TRANSPOSE, TITAN_V), (REDUCTION, GTX_980), (STENCIL_3D, TITAN_V)],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_grid_matches_matrix(self, profile, arch, max_rows):
        failures_seen = 0
        for start, stop, columns in GRID_SPACE.grid_blocks(max_rows):
            shape = np.broadcast_shapes(*(c.shape for c in columns))
            rows = np.column_stack(
                [np.broadcast_to(c, shape).reshape(-1) for c in columns]
            )
            grid, grid_counts = _counted(
                simulate_columns, profile, arch, columns
            )
            matrix, matrix_counts = _counted(
                simulate_runtimes, profile, arch, rows
            )
            assert grid_counts == matrix_counts
            assert grid_counts[0] == stop - start
            for field in dataclasses.fields(SimulationResult):
                g = getattr(grid, field.name)
                m = getattr(matrix, field.name)
                assert g.shape == shape and m.shape == (stop - start,)
                assert g.dtype == m.dtype
                assert np.ascontiguousarray(g).tobytes() == m.tobytes(), (
                    field.name
                )
            failures_seen += int(grid_counts[1])
        if profile is ADD:
            assert failures_seen > 0

    def test_wrong_column_count_rejected(self):
        with pytest.raises(ValueError):
            simulate_columns(ADD, TITAN_V, (np.array([1]),) * 5)
