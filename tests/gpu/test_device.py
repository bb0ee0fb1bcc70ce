"""Unit tests for the simulated measurement device."""

import numpy as np
import pytest

from repro.gpu import (
    DEFAULT_NOISE,
    NOISELESS,
    TITAN_V,
    SimulatedDevice,
    config_dict_to_row,
)
from repro.kernels import get_kernel

GOOD = {"thread_x": 1, "thread_y": 1, "thread_z": 1,
        "wg_x": 8, "wg_y": 4, "wg_z": 1}
BAD = {"thread_x": 1, "thread_y": 1, "thread_z": 1,
       "wg_x": 8, "wg_y": 8, "wg_z": 8}


def rows(configs):
    return np.stack([config_dict_to_row(c) for c in configs])


@pytest.fixture
def device():
    return SimulatedDevice(
        TITAN_V, get_kernel("add", 2048, 2048).profile(),
        rng=np.random.default_rng(0),
    )


class TestMeasure:
    def test_valid_measurement(self, device):
        m = device.measure(GOOD)
        assert m.valid
        assert np.isfinite(m.runtime_ms) and m.runtime_ms > 0
        assert m.transfer_ms > 0

    def test_invalid_launch(self, device):
        m = device.measure(BAD)
        assert not m.valid
        assert np.isinf(m.runtime_ms)

    def test_missing_parameter_raises(self, device):
        with pytest.raises(KeyError, match="wg_z"):
            device.measure({k: v for k, v in GOOD.items() if k != "wg_z"})

    def test_repeated_measurements_vary(self, device):
        ms = device.measure_repeated(GOOD, 10)
        values = [m.runtime_ms for m in ms]
        assert len(set(values)) > 1  # noise

    def test_repeats_validation(self, device):
        with pytest.raises(ValueError):
            device.measure_repeated(GOOD, 0)

    def test_noiseless_device_deterministic(self):
        dev = SimulatedDevice(
            TITAN_V, get_kernel("add", 2048, 2048).profile(),
            noise=NOISELESS, rng=np.random.default_rng(0),
        )
        values = [m.runtime_ms for m in dev.measure_repeated(GOOD, 5)]
        assert len(set(values)) == 1

    def test_transfer_excluded_from_runtime(self, device):
        """Section VI-A: the timer excludes host<->device transfers."""
        m = device.measure(GOOD)
        assert m.total_ms == pytest.approx(m.runtime_ms + m.transfer_ms)
        assert m.transfer_ms > 0

    def test_transfer_scales_with_data(self):
        small = SimulatedDevice(
            TITAN_V, get_kernel("add", 1024, 1024).profile()
        )
        large = SimulatedDevice(
            TITAN_V, get_kernel("add", 4096, 4096).profile()
        )
        assert large.transfer_time_ms() == pytest.approx(
            16 * small.transfer_time_ms()
        )


class TestAccounting:
    def test_launch_counter(self, device):
        assert device.launches == 0
        device.measure(GOOD)
        assert device.launches == 1
        device.measure_repeated(GOOD, 10)
        assert device.launches == 11

    def test_batch_counts(self, device):
        device.measure_matrix(rows([GOOD, GOOD, BAD]))
        assert device.launches == 3

    def test_reset(self, device):
        device.measure(GOOD)
        device.reset_counter()
        assert device.launches == 0

    def test_true_runtimes_not_counted(self, device):
        device.true_runtimes(config_dict_to_row(GOOD).reshape(1, -1))
        assert device.launches == 0


class TestBatch:
    def test_batch_matches_columns(self, device):
        row = config_dict_to_row(GOOD)
        np.testing.assert_array_equal(row, [1, 1, 1, 8, 4, 1])

    def test_empty_batch(self, device):
        out = device.measure_matrix(np.empty((0, 6), dtype=np.int64))
        assert out.size == 0

    def test_batch_inf_for_invalid(self, device):
        out = device.measure_matrix(rows([GOOD, BAD]))
        assert np.isfinite(out[0])
        assert np.isinf(out[1])

    def test_same_seed_same_measurements(self):
        prof = get_kernel("add", 2048, 2048).profile()
        a = SimulatedDevice(TITAN_V, prof, rng=np.random.default_rng(5))
        b = SimulatedDevice(TITAN_V, prof, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(
            a.measure_matrix(rows([GOOD] * 5)),
            b.measure_matrix(rows([GOOD] * 5)),
        )
