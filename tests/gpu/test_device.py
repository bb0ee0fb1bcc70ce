"""Unit tests for the simulated measurement device."""

import numpy as np
import pytest

from repro.gpu import (
    DEFAULT_NOISE,
    NOISELESS,
    TITAN_V,
    CONFIG_COLUMNS,
    SimulatedDevice,
    simulate_runtimes,
)
from repro.gpu.landscape import LandscapeTable
from repro.kernels import get_kernel
from repro.searchspace import (
    IntegerParameter,
    SearchSpace,
    paper_search_space,
)

GOOD = {"thread_x": 1, "thread_y": 1, "thread_z": 1,
        "wg_x": 8, "wg_y": 4, "wg_z": 1}
BAD = {"thread_x": 1, "thread_y": 1, "thread_z": 1,
       "wg_x": 8, "wg_y": 8, "wg_z": 8}


SPACE = paper_search_space()


def flats(configs):
    return np.array(
        [SPACE.config_to_flat(c) for c in configs], dtype=np.int64
    )


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
        device.measure_flats(flats([GOOD, GOOD, BAD]))
        assert device.launches == 3

    def test_reset(self, device):
        device.measure(GOOD)
        device.reset_counter()
        assert device.launches == 0

    def test_true_runtimes_not_counted(self, device):
        device.true_runtimes(SPACE.flats_to_values(flats([GOOD])))
        assert device.launches == 0


class TestBatch:
    def test_batch_matches_columns(self, device):
        """The device's rows list values in the simulator's column order."""
        assert tuple(device.space.names) == CONFIG_COLUMNS
        row = device.space.flats_to_values(flats([GOOD]))[0]
        np.testing.assert_array_equal(row, [1, 1, 1, 8, 4, 1])

    def test_empty_batch(self, device):
        out = device.measure_flats(np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_batch_inf_for_invalid(self, device):
        out = device.measure_flats(flats([GOOD, BAD]))
        assert np.isfinite(out[0])
        assert np.isinf(out[1])

    def test_same_seed_same_measurements(self):
        prof = get_kernel("add", 2048, 2048).profile()
        a = SimulatedDevice(TITAN_V, prof, rng=np.random.default_rng(5))
        b = SimulatedDevice(TITAN_V, prof, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(
            a.measure_flats(flats([GOOD] * 5)),
            b.measure_flats(flats([GOOD] * 5)),
        )


def _failing_flats(rng, n):
    """Flats whose work group is 8 x 8 x 8: launch failures on the
    Titan V."""
    idx = SPACE.flats_to_index_matrix(
        rng.integers(0, SPACE.size, size=n, dtype=np.int64)
    )
    idx[:, 3:] = 7
    return idx @ np.array(SPACE.places(), dtype=np.int64)


class TestLiveFlatRoutes:
    """Without a table, a flat route resolves its whole batch in one
    simulator pass and still draws noise as the per-config route does."""

    @pytest.mark.parametrize("kernel", ["add", "harris"])
    @pytest.mark.parametrize("batch", [1, 7, 20])
    def test_measure_flats_each_matches_per_config_measure(
        self, kernel, batch
    ):
        profile = get_kernel(kernel, 2048, 2048).profile()
        rng = np.random.default_rng(batch)
        batched = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(42)
        )
        single = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(42)
        )
        got, want = [], []
        for _ in range(4):
            chunk = rng.integers(0, SPACE.size, size=batch, dtype=np.int64)
            fail = rng.random(batch) < 0.3
            chunk[fail] = _failing_flats(rng, int(fail.sum()))
            got.extend(batched.measure_flats_each(chunk).tolist())
            want.extend(
                single.measure(c).runtime_ms
                for c in SPACE.flats_to_configs(chunk)
            )
        assert np.isinf(got).any() and np.isfinite(got).any()
        assert np.array_equal(np.array(got), np.array(want))
        assert (
            batched.rng.bit_generator.state == single.rng.bit_generator.state
        )
        assert batched.launches == single.launches == 4 * batch

    def test_measure_flat_matches_measure(self, device):
        other = SimulatedDevice(
            TITAN_V, device.profile, rng=np.random.default_rng(0)
        )
        for config in (GOOD, BAD):
            flat = SPACE.config_to_flat(config)
            assert device.measure_flat(flat) == other.measure(config)

    def test_one_simulator_pass_per_batch(self, device, monkeypatch):
        import repro.gpu.device as device_module

        calls = []

        def counting(profile, arch, matrix):
            calls.append(len(matrix))
            return simulate_runtimes(profile, arch, matrix)

        monkeypatch.setattr(device_module, "simulate_runtimes", counting)
        device.measure_flats_each(np.arange(20))
        device.measure_flats(np.arange(300))
        device.measure_flat_repeated(5, 10)
        assert calls == [20, 300, 1]

    def test_table_space_must_follow_simulator_columns(self):
        swapped = SearchSpace([
            IntegerParameter(name, 1, 2)
            for name in ("thread_y", "thread_x", "thread_z",
                         "wg_x", "wg_y", "wg_z")
        ])
        profile = get_kernel("add", 2048, 2048).profile()
        table = LandscapeTable(
            swapped, np.ones(swapped.size), np.zeros(8, dtype=np.uint8),
            "fingerprint", profile.name, TITAN_V.codename,
        )
        with pytest.raises(ValueError, match="thread_x"):
            SimulatedDevice(TITAN_V, profile, table=table)

    def test_live_ga_cell_one_pass_per_generation(self, monkeypatch):
        """A table-less GA cell at budget 400 measures each generation in
        one simulator pass, plus one pass for its final repeats."""
        import repro.gpu.device as device_module
        from repro.experiments.runner import ExperimentTask, run_experiment
        from repro.search import Objective

        passes, generations = [], []
        simulate = device_module.simulate_runtimes
        score = Objective.evaluate_flats

        def counting_simulate(profile, arch, matrix):
            passes.append(len(matrix))
            return simulate(profile, arch, matrix)

        def counting_score(self, flats):
            generations.append(len(flats))
            return score(self, flats)

        monkeypatch.setattr(
            device_module, "simulate_runtimes", counting_simulate
        )
        monkeypatch.setattr(Objective, "evaluate_flats", counting_score)
        result = run_experiment(ExperimentTask(
            "genetic_algorithm", "add", "titan_v", sample_size=400,
            experiment=0, root_seed=1,
        ))
        assert result.samples_used == 400
        assert len(passes) == len(generations) + 1
        assert sum(passes[:-1]) == 400 and passes[-1] == 1
