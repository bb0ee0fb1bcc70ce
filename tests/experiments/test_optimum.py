"""Unit tests for exhaustive optimum scans."""

import numpy as np
import pytest

from repro.experiments import clear_optimum_cache, find_true_optimum
from repro.gpu import TITAN_V, simulate_runtimes
from repro.gpu.landscape import BLOCK_ROWS, compute_landscape
from repro.kernels import get_kernel
from repro.searchspace import (
    IntegerParameter,
    SearchSpace,
    paper_search_space,
    workgroup_product_limit,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_optimum_cache()
    yield
    clear_optimum_cache()


@pytest.fixture
def small_space():
    """A reduced 6-parameter space (~4k configs) for exact cross-checks."""
    return SearchSpace(
        [
            IntegerParameter("thread_x", 1, 4),
            IntegerParameter("thread_y", 1, 4),
            IntegerParameter("thread_z", 1, 2),
            IntegerParameter("wg_x", 1, 8),
            IntegerParameter("wg_y", 1, 8),
            IntegerParameter("wg_z", 1, 2),
        ]
    )


@pytest.fixture
def blocked_space():
    """20,480 configurations under a workgroup limit: two full
    :data:`BLOCK_ROWS` blocks, a short tail block and a feasibility mask."""
    return SearchSpace(
        [
            IntegerParameter("thread_x", 1, 5),
            IntegerParameter("thread_y", 1, 4),
            IntegerParameter("thread_z", 1, 4),
            IntegerParameter("wg_x", 1, 8),
            IntegerParameter("wg_y", 1, 8),
            IntegerParameter("wg_z", 1, 4),
        ]
    ).with_constraints(workgroup_product_limit(("wg_x", "wg_y", "wg_z"), 64))


class TestScan:
    def test_matches_brute_force_on_small_space(self, small_space):
        profile = get_kernel("add", 512, 512).profile()
        opt = find_true_optimum(profile, TITAN_V, small_space,
                                chunk_size=500)
        # Brute force with one vectorized pass.
        flats = np.arange(small_space.size)
        values = small_space.index_matrix_to_features(
            small_space.flats_to_index_matrix(flats)
        ).astype(np.int64)
        rts = simulate_runtimes(profile, TITAN_V, values).runtime_ms
        assert opt.runtime_ms == pytest.approx(np.min(rts))
        assert opt.flat_index == int(np.argmin(rts))

    def test_chunking_invariant(self, small_space):
        profile = get_kernel("harris", 512, 512).profile()
        a = find_true_optimum(profile, TITAN_V, small_space,
                              chunk_size=100, use_cache=False)
        for chunk_size in (4096, BLOCK_ROWS, 1 << 18):
            b = find_true_optimum(profile, TITAN_V, small_space,
                                  chunk_size=chunk_size, use_cache=False)
            assert a.flat_index == b.flat_index
            assert a.runtime_ms == b.runtime_ms

    @pytest.mark.parametrize("kernel", ["add", "harris"])
    def test_live_and_table_scans_agree_across_blocks(
        self, blocked_space, kernel
    ):
        profile = get_kernel(kernel, 512, 512).profile()
        table = compute_landscape(profile, TITAN_V, blocked_space)
        scans = [
            find_true_optimum(profile, TITAN_V, blocked_space,
                              chunk_size=chunk_size, use_cache=False,
                              table=table if tabled else None)
            for chunk_size in (BLOCK_ROWS, 1 << 18, 3000)
            for tabled in (False, True)
        ]
        assert len({(o.flat_index, o.runtime_ms, o.scanned)
                    for o in scans}) == 1

    @pytest.mark.parametrize("chunk_size", [0, -1])
    def test_block_size_below_one_rejected(self, small_space, chunk_size):
        profile = get_kernel("add", 512, 512).profile()
        with pytest.raises(ValueError, match="block size"):
            find_true_optimum(profile, TITAN_V, small_space,
                              chunk_size=chunk_size, use_cache=False)

    def test_optimum_is_feasible(self):
        space = paper_search_space()
        profile = get_kernel("add", 1024, 1024).profile()
        opt = find_true_optimum(profile, TITAN_V, space)
        assert space.is_feasible(opt.config)
        assert np.isfinite(opt.runtime_ms)
        # ``scanned`` reports rows actually considered: with
        # feasible_only the constrained-out rows are excluded.
        feasible_wg = sum(
            1
            for x in range(1, 9)
            for y in range(1, 9)
            for z in range(1, 9)
            if x * y * z <= 256
        )
        threads = 16 * 16 * 16
        assert opt.scanned == feasible_wg * threads
        assert 0 < opt.scanned < space.size

    def test_scanned_counts_whole_space_without_filter(self, small_space):
        profile = get_kernel("add", 512, 512).profile()
        opt = find_true_optimum(
            profile, TITAN_V, small_space, use_cache=False
        )
        assert opt.scanned == small_space.size

    def test_cache_hit_returns_same_object(self, small_space):
        profile = get_kernel("add", 512, 512).profile()
        a = find_true_optimum(profile, TITAN_V, small_space)
        b = find_true_optimum(profile, TITAN_V, small_space)
        assert a is b

    def test_cache_distinguishes_architectures(self, small_space):
        from repro.gpu import GTX_980

        profile = get_kernel("add", 512, 512).profile()
        a = find_true_optimum(profile, TITAN_V, small_space)
        b = find_true_optimum(profile, GTX_980, small_space)
        assert a.runtime_ms != b.runtime_ms

    def test_feasibility_filter_applied(self, small_space):
        """With a constraint tighter than the device limit, the scan must
        skip configurations the device itself could still launch."""
        from repro.searchspace import workgroup_product_limit

        tight = small_space.with_constraints(
            workgroup_product_limit(("wg_x", "wg_y", "wg_z"), 8)
        )
        profile = get_kernel("add", 512, 512).profile()
        opt = find_true_optimum(profile, TITAN_V, tight, use_cache=False)
        cfg = opt.config
        assert cfg["wg_x"] * cfg["wg_y"] * cfg["wg_z"] <= 8
