"""Landscape tables: bit-identity, fingerprints, cache robustness."""

import json

import numpy as np
import pytest

from repro.gpu import CONFIG_COLUMNS, GTX_980, TITAN_V, simulate_runtimes
from repro.gpu.device import SimulatedDevice
from repro.gpu.landscape import (
    BLOCK_ROWS,
    LANDSCAPE_CACHE_ENV,
    clear_landscape_memo,
    compute_landscape,
    landscape_fingerprint,
    load_landscape,
    load_or_compute_landscape,
    save_landscape,
    default_cache_dir,
)
from repro.kernels import get_kernel
from repro.searchspace import (
    IntegerParameter,
    SearchSpace,
    paper_search_space,
    workgroup_product_limit,
)


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_landscape_memo()
    yield
    clear_landscape_memo()


@pytest.fixture
def small_space():
    """~4k configurations — a full scan takes milliseconds."""
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


def paper_flats(space, flats):
    """The paper-space flat indices of ``space``'s configurations at
    ``flats``: what a table-less device measures them by."""
    paper = paper_search_space()
    return np.array(
        [paper.config_to_flat(c) for c in space.flats_to_configs(flats)],
        dtype=np.int64,
    )


@pytest.fixture
def profile():
    return get_kernel("add", 512, 512).profile()


@pytest.fixture
def table(profile, small_space):
    return compute_landscape(profile, TITAN_V, small_space)


class TestComputedTable:
    def test_matches_one_row_simulation_bit_for_bit(
        self, profile, small_space, table
    ):
        rng = np.random.default_rng(11)
        flats = rng.integers(0, small_space.size, size=64)
        for flat in flats:
            row = small_space.index_matrix_to_features(
                small_space.flats_to_index_matrix(
                    np.array([flat], dtype=np.int64)
                )
            ).astype(np.int64)
            sim = simulate_runtimes(profile, TITAN_V, row)
            one = np.array([flat], dtype=np.int64)
            assert table.runtimes_at(one)[0] == sim.runtime_ms[0]
            assert table.failures_at(one)[0] == sim.launch_failure[0]

    def test_failure_bitmask_roundtrip(self, small_space, table):
        flats = np.arange(small_space.size, dtype=np.int64)
        rows = small_space.index_matrix_to_features(
            small_space.flats_to_index_matrix(flats)
        ).astype(np.int64)
        sim = simulate_runtimes(
            get_kernel("add", 512, 512).profile(), TITAN_V, rows
        )
        np.testing.assert_array_equal(
            table.failures_at(flats), sim.launch_failure
        )
        # One-element lookups at the edges of a bitmask byte.
        for flat in (0, 1, 7, 8, small_space.size - 1):
            assert (
                table.failures_at(np.array([flat]))[0]
                == sim.launch_failure[flat]
            )

    def test_runtimes_at_is_in_memory_float64(self, table):
        out = table.runtimes_at(np.array([0, 5, 9], dtype=np.int64))
        assert out.dtype == np.float64
        assert not isinstance(out, np.memmap)

    @pytest.mark.parametrize("block", [BLOCK_ROWS, 1 << 18, 1000, 7])
    def test_bytes_independent_of_block_size(
        self, profile, small_space, table, block
    ):
        # 1000 and 7 do not divide the 4,096-row space: the last block
        # is a short one.
        blocked = compute_landscape(profile, TITAN_V, small_space, block)
        assert blocked.runtime_ms.tobytes() == table.runtime_ms.tobytes()
        assert blocked.failure_bits.tobytes() == table.failure_bits.tobytes()

    @pytest.mark.parametrize("block", [0, -1])
    def test_block_size_below_one_rejected(self, profile, small_space, block):
        with pytest.raises(ValueError, match="block size"):
            compute_landscape(profile, TITAN_V, small_space, block)


class TestFingerprint:
    def test_stable_for_equal_inputs(self, profile, small_space):
        a = landscape_fingerprint(profile, TITAN_V, small_space)
        # A separately-constructed but equal profile/space hashes alike.
        b = landscape_fingerprint(
            get_kernel("add", 512, 512).profile(), TITAN_V, small_space
        )
        assert a == b

    def test_sensitive_to_profile_arch_space_and_version(
        self, profile, small_space, monkeypatch
    ):
        base = landscape_fingerprint(profile, TITAN_V, small_space)
        assert landscape_fingerprint(
            get_kernel("add", 1024, 1024).profile(), TITAN_V, small_space
        ) != base
        assert landscape_fingerprint(profile, GTX_980, small_space) != base
        constrained = small_space.with_constraints(
            workgroup_product_limit(("wg_x", "wg_y", "wg_z"), 8)
        )
        assert landscape_fingerprint(profile, TITAN_V, constrained) != base
        monkeypatch.setattr(
            "repro.gpu.landscape.SIMULATOR_VERSION", 999
        )
        assert landscape_fingerprint(profile, TITAN_V, small_space) != base


class TestCache:
    def test_save_load_roundtrip_is_memory_mapped(
        self, tmp_path, profile, small_space, table
    ):
        save_landscape(table, tmp_path, profile, TITAN_V)
        loaded = load_landscape(tmp_path, profile, TITAN_V, small_space)
        assert loaded is not None
        assert loaded.source == "cache"
        assert isinstance(loaded.runtime_ms, np.memmap)
        np.testing.assert_array_equal(
            np.asarray(loaded.runtime_ms), np.asarray(table.runtime_ms)
        )
        np.testing.assert_array_equal(
            np.asarray(loaded.failure_bits), np.asarray(table.failure_bits)
        )

    def test_missing_cache_returns_none(self, tmp_path, profile, small_space):
        assert load_landscape(tmp_path, profile, TITAN_V, small_space) is None

    def test_corrupt_sidecar_triggers_rebuild(
        self, tmp_path, profile, small_space, table
    ):
        sidecar = save_landscape(table, tmp_path, profile, TITAN_V)
        sidecar.write_text("{ torn json")
        assert load_landscape(tmp_path, profile, TITAN_V, small_space) is None
        rebuilt = load_or_compute_landscape(
            profile, TITAN_V, small_space, cache_dir=tmp_path
        )
        np.testing.assert_array_equal(
            np.asarray(rebuilt.runtime_ms), np.asarray(table.runtime_ms)
        )
        # The rebuild repaired the cache in place.
        assert (
            load_landscape(tmp_path, profile, TITAN_V, small_space)
            is not None
        )

    def test_truncated_array_triggers_rebuild(
        self, tmp_path, profile, small_space, table
    ):
        save_landscape(table, tmp_path, profile, TITAN_V)
        runtimes_path = tmp_path / f"{table.fingerprint}.runtimes.npy"
        runtimes_path.write_bytes(runtimes_path.read_bytes()[:64])
        assert load_landscape(tmp_path, profile, TITAN_V, small_space) is None

    def test_mismatched_sidecar_fingerprint_rejected(
        self, tmp_path, profile, small_space, table
    ):
        sidecar = save_landscape(table, tmp_path, profile, TITAN_V)
        doc = json.loads(sidecar.read_text())
        doc["fingerprint"] = "0" * 24
        sidecar.write_text(json.dumps(doc))
        assert load_landscape(tmp_path, profile, TITAN_V, small_space) is None

    def test_load_or_compute_memoizes_per_process(
        self, tmp_path, profile, small_space
    ):
        a = load_or_compute_landscape(
            profile, TITAN_V, small_space, cache_dir=tmp_path
        )
        b = load_or_compute_landscape(
            profile, TITAN_V, small_space, cache_dir=tmp_path
        )
        assert a is b

    def test_in_memory_mode_without_cache_dir(self, profile, small_space):
        t = load_or_compute_landscape(profile, TITAN_V, small_space)
        assert t.source == "computed"
        assert t.size == small_space.size

    def test_default_cache_dir_reads_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
        assert default_cache_dir() is None
        monkeypatch.setenv(LANDSCAPE_CACHE_ENV, str(tmp_path))
        assert default_cache_dir() == tmp_path


class TestTableBackedDevice:
    def test_measure_parity_with_live_device(
        self, profile, small_space, table
    ):
        rng_live = np.random.default_rng(5)
        rng_tab = np.random.default_rng(5)
        live = SimulatedDevice(TITAN_V, profile, rng=rng_live)
        backed = SimulatedDevice(TITAN_V, profile, rng=rng_tab, table=table)
        for cfg in small_space.sample(np.random.default_rng(1), 40):
            a = live.measure(cfg)
            b = backed.measure(cfg)
            assert a.runtime_ms == b.runtime_ms
            assert a.valid == b.valid
            assert a.transfer_ms == b.transfer_ms
        # Identical RNG consumption: the streams stay in lockstep.
        assert rng_live.bit_generator.state == rng_tab.bit_generator.state
        assert live.launches == backed.launches

    def test_measure_flat_matches_measure(self, profile, small_space, table):
        cfg = small_space.flat_to_config(17)
        a = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(3), table=table
        ).measure(cfg)
        b = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(3), table=table
        ).measure_flat(17)
        assert a == b

    def test_live_measure_flats_matches_table(
        self, profile, small_space, table
    ):
        flats = small_space.sample_flat(
            np.random.default_rng(2), 128, feasible_only=True
        )
        live = SimulatedDevice(TITAN_V, profile, rng=np.random.default_rng(8))
        backed = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(8), table=table
        )
        np.testing.assert_array_equal(
            live.measure_flats(paper_flats(small_space, flats)),
            backed.measure_flats(flats),
        )
        assert live.rng.bit_generator.state == backed.rng.bit_generator.state

    def test_measure_repeated_parity(self, profile, small_space, table):
        cfg = small_space.flat_to_config(99)
        a = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(4)
        ).measure_repeated(cfg, 10)
        b = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(4), table=table
        ).measure_repeated(cfg, 10)
        assert [m.runtime_ms for m in a] == [m.runtime_ms for m in b]

    def test_live_flat_routes_match_table(self, profile):
        """Every flat route gives a table-less device the table's bits,
        launch failures included."""
        space = SearchSpace(
            [IntegerParameter(n, 1, 2) for n in CONFIG_COLUMNS[:3]]
            + [IntegerParameter(n, 1, 8) for n in CONFIG_COLUMNS[3:]]
        )
        table = compute_landscape(profile, TITAN_V, space)
        live = SimulatedDevice(TITAN_V, profile, rng=np.random.default_rng(6))
        backed = SimulatedDevice(
            TITAN_V, profile, rng=np.random.default_rng(6), table=table
        )
        failing = int(np.flatnonzero(
            table.failures_at(np.arange(space.size))
        )[0])
        batch = np.array([3, failing, 250, 17, failing, 4000], dtype=np.int64)
        for device, to_flats in (
            (live, lambda flats: paper_flats(space, flats)),
            (backed, lambda flats: np.asarray(flats, dtype=np.int64)),
        ):
            device.out = [
                device.measure_flat(to_flats([17])[0]),
                device.measure_flat(to_flats([failing])[0]),
                device.measure_flats_each(to_flats(batch)).tolist(),
                device.measure_flat_repeated(to_flats([99])[0], 10).tolist(),
                device.measure_flat_repeated(
                    to_flats([failing])[0], 3
                ).tolist(),
            ]
        assert not live.out[1].valid and np.isinf(live.out[1].runtime_ms)
        assert live.out == backed.out
        assert live.rng.bit_generator.state == backed.rng.bit_generator.state
        assert live.launches == backed.launches == 2 + 6 + 10 + 3

    def test_mismatched_table_rejected(self, profile, small_space, table):
        other = get_kernel("harris", 512, 512).profile()
        with pytest.raises(ValueError, match="cannot back"):
            SimulatedDevice(TITAN_V, other, table=table)
        with pytest.raises(ValueError, match="cannot back"):
            SimulatedDevice(GTX_980, profile, table=table)
