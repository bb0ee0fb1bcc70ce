"""Unit tests for pre-collected datasets."""

import numpy as np
import pytest

from repro.experiments import PrecollectedDataset, collect_dataset
from repro.gpu import TITAN_V, SimulatedDevice
from repro.kernels import get_kernel


@pytest.fixture
def setup():
    kernel = get_kernel("add", 1024, 1024)
    space = kernel.space()
    device = SimulatedDevice(
        TITAN_V, kernel.profile(), rng=np.random.default_rng(0)
    )
    return kernel, space, device


class TestCollect:
    def test_size_and_finiteness(self, setup):
        _, space, device = setup
        ds = collect_dataset(device, space, 200, np.random.default_rng(1))
        assert ds.size == 200
        # Constraint sampling: every row is feasible, so every
        # measurement succeeded.
        assert np.all(np.isfinite(ds.runtimes_ms))

    def test_rows_are_feasible(self, setup):
        _, space, device = setup
        ds = collect_dataset(device, space, 100, np.random.default_rng(2))
        for f in ds.flats[:30]:
            assert space.is_feasible(space.flat_to_config(int(f)))

    def test_counts_launches(self, setup):
        _, space, device = setup
        collect_dataset(device, space, 150, np.random.default_rng(3))
        assert device.launches == 150

    def test_reproducible(self, setup):
        kernel, space, _ = setup
        d1 = SimulatedDevice(TITAN_V, kernel.profile(),
                             rng=np.random.default_rng(9))
        d2 = SimulatedDevice(TITAN_V, kernel.profile(),
                             rng=np.random.default_rng(9))
        a = collect_dataset(d1, space, 50, np.random.default_rng(4))
        b = collect_dataset(d2, space, 50, np.random.default_rng(4))
        np.testing.assert_array_equal(a.flats, b.flats)
        np.testing.assert_array_equal(a.runtimes_ms, b.runtimes_ms)

    def test_invalid_size(self, setup):
        _, space, device = setup
        with pytest.raises(ValueError):
            collect_dataset(device, space, 0, np.random.default_rng(0))


class TestSlicing:
    def test_disjoint_slices(self):
        ds = PrecollectedDataset(
            flats=np.arange(100), runtimes_ms=np.arange(100.0)
        )
        s0 = ds.slice_for(25, 0)
        s1 = ds.slice_for(25, 1)
        np.testing.assert_array_equal(s0.flats, np.arange(25))
        np.testing.assert_array_equal(s1.flats, np.arange(25, 50))

    def test_partition_covers_everything(self):
        ds = PrecollectedDataset(
            flats=np.arange(100), runtimes_ms=np.zeros(100)
        )
        all_rows = np.concatenate(
            [ds.slice_for(25, i).flats for i in range(4)]
        )
        np.testing.assert_array_equal(np.sort(all_rows), np.arange(100))

    def test_out_of_range(self):
        ds = PrecollectedDataset(
            flats=np.arange(50), runtimes_ms=np.zeros(50)
        )
        with pytest.raises(ValueError):
            ds.slice_for(25, 2)
        with pytest.raises(ValueError):
            ds.slice_for(25, -1)

    def test_configs_decoding(self, setup):
        _, space, device = setup
        ds = collect_dataset(device, space, 10, np.random.default_rng(5))
        cfgs = space.flats_to_configs(ds.flats)
        assert len(cfgs) == 10
        for cfg, flat in zip(cfgs, ds.flats):
            assert space.config_to_flat(cfg) == flat

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PrecollectedDataset(
                flats=np.arange(5), runtimes_ms=np.zeros(4)
            )
        with pytest.raises(ValueError):
            PrecollectedDataset(
                flats=np.zeros((2, 2), dtype=np.int64),
                runtimes_ms=np.zeros((2, 2)),
            )
