"""Content-addressed result store: keys, validation, races, gc.

The store's integrity contract is "rebuild, never crash": every broken,
torn, stale, or alien entry must read as a miss, and two writers racing
one fingerprint must converge on a whole entry.
"""

import json
import multiprocessing
import os
import time

from repro.experiments.results import ExperimentResult
from repro.gpu.simulator import SIMULATOR_VERSION
from repro.obs import MetricsRegistry
from repro.store import (
    STORE_ENV,
    STORE_FORMAT_VERSION,
    ResultStore,
    canonical_json,
    cell_identity,
    default_store_dir,
    fingerprint_of,
)


def make_result(**overrides):
    fields = dict(
        algorithm="random_search",
        kernel="add",
        arch="titan_v",
        sample_size=25,
        experiment=0,
        final_runtime_ms=1.25,
        best_flat=7,
        observed_best_ms=1.5,
        samples_used=25,
        convergence=[2.0, 1.5],
        metrics={"evaluations_total": 25.0, "tuner_seconds_sum": 0.3},
    )
    fields.update(overrides)
    return ExperimentResult(**fields)


def make_identity(**overrides):
    kwargs = dict(
        algorithm="random_search",
        kernel="add",
        arch="titan_v",
        sample_size=25,
        experiment=0,
        root_seed=20220530,
        final_repeats=10,
    )
    kwargs.update(overrides)
    return cell_identity("aaaa1111bbbb2222cccc3333", **kwargs)


class TestKeys:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_fingerprint_deterministic_and_sensitive(self):
        base = make_identity()
        assert fingerprint_of(base) == fingerprint_of(make_identity())
        assert len(fingerprint_of(base)) == 24
        for change in (
            dict(algorithm="bo_gp"),
            dict(kernel="convolution"),
            dict(arch="a100"),
            dict(sample_size=50),
            dict(experiment=1),
            dict(root_seed=7),
            dict(final_repeats=3),
            dict(tuner_kwargs={"population": 8}),
            dict(dataset_rows=100),
        ):
            assert fingerprint_of(make_identity(**change)) != fingerprint_of(
                base
            ), change

    def test_landscape_fingerprint_feeds_identity(self):
        a = make_identity()
        b = cell_identity(
            "ffff0000ffff0000ffff0000",
            algorithm="random_search",
            kernel="add",
            arch="titan_v",
            sample_size=25,
            experiment=0,
            root_seed=20220530,
            final_repeats=10,
        )
        assert fingerprint_of(a) != fingerprint_of(b)

    def test_tuner_kwargs_order_is_canonical(self):
        a = make_identity(tuner_kwargs=(("a", 1), ("b", 2)))
        b = make_identity(tuner_kwargs=(("b", 2), ("a", 1)))
        assert fingerprint_of(a) == fingerprint_of(b)

    def test_simulator_version_is_in_identity(self):
        assert make_identity()["simulator_version"] == SIMULATOR_VERSION

    def test_default_store_dir_reads_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert default_store_dir() is None
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "store"))
        assert default_store_dir() == tmp_path / "store"


class TestRoundTrip:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        identity = make_identity()
        fp = fingerprint_of(identity)
        result = make_result()
        path = store.put_result(fp, result, identity)
        assert path.is_file()
        got = store.get_result(fp)
        assert got == result
        assert got.convergence == result.convergence

    def test_wall_clock_metrics_scrubbed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        fp = fingerprint_of(make_identity())
        store.put_result(fp, make_result(), make_identity())
        got = store.get_result(fp)
        assert "tuner_seconds_sum" not in got.metrics
        assert got.metrics["evaluations_total"] == 25.0

    def test_absent_is_miss(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=registry)
        assert store.get_result("0" * 24) is None
        flat = registry.flat_counters()
        assert flat["result_store_misses_total"] == 1
        assert "result_store_invalid_total" not in flat

    def test_hit_and_write_counted(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=registry)
        fp = fingerprint_of(make_identity())
        store.put_result(fp, make_result(), make_identity())
        assert store.get_result(fp) is not None
        flat = registry.flat_counters()
        assert flat["result_store_writes_total"] == 1
        assert flat["result_store_hits_total"] == 1


class TestInvalidation:
    def _stored(self, tmp_path, **store_kwargs):
        store = ResultStore(tmp_path / "store", **store_kwargs)
        identity = make_identity()
        fp = fingerprint_of(identity)
        store.put_result(fp, make_result(), identity)
        return store, fp

    def test_torn_entry_is_miss_not_crash(self, tmp_path):
        store, fp = self._stored(tmp_path)
        path = store.path_for(fp)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # torn mid-write
        assert store.get_result(fp) is None

    def test_garbage_entry_is_miss(self, tmp_path):
        store, fp = self._stored(tmp_path)
        store.path_for(fp).write_text("\x00not json\x00")
        assert store.get_result(fp) is None

    def test_simulator_version_bump_invalidates(self, tmp_path):
        store, fp = self._stored(tmp_path)
        path = store.path_for(fp)
        doc = json.loads(path.read_text())
        doc["simulator_version"] = SIMULATOR_VERSION + 1
        path.write_text(json.dumps(doc))
        assert store.get_result(fp) is None

    def test_format_version_bump_invalidates(self, tmp_path):
        store, fp = self._stored(tmp_path)
        path = store.path_for(fp)
        doc = json.loads(path.read_text())
        doc["format_version"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        assert store.get_result(fp) is None

    def test_fingerprint_mismatch_refused(self, tmp_path):
        store, fp = self._stored(tmp_path)
        other = "f" * 24
        target = store.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.path_for(fp).read_text())
        assert store.get_result(other) is None

    def test_alien_result_schema_refused(self, tmp_path):
        store, fp = self._stored(tmp_path)
        path = store.path_for(fp)
        doc = json.loads(path.read_text())
        doc["result"] = {"not_a_field": 1}
        path.write_text(json.dumps(doc))
        assert store.get_result(fp) is None

    def test_ttl_expiry(self, tmp_path):
        now = [1000.0]
        store = ResultStore(
            tmp_path / "store", ttl=60.0, clock=lambda: now[0]
        )
        identity = make_identity()
        fp = fingerprint_of(identity)
        store.put_result(fp, make_result(), identity)
        assert store.get_result(fp) is not None
        now[0] += 61.0
        assert store.get_result(fp) is None

    def test_gc_reclaims_refused_entries(self, tmp_path):
        registry = MetricsRegistry()
        store = ResultStore(tmp_path / "store", metrics=registry)
        keep = make_identity()
        store.put_result(fingerprint_of(keep), make_result(), keep)
        drop = make_identity(experiment=1)
        fp_drop = fingerprint_of(drop)
        store.put_result(fp_drop, make_result(experiment=1), drop)
        store.path_for(fp_drop).write_text("torn")

        dry = store.gc(dry_run=True)
        assert dry["kept"] == 1 and len(dry["evicted"]) == 1
        assert store.path_for(fp_drop).exists()

        report = store.gc()
        assert report["kept"] == 1
        assert report["evicted"][0]["reason"] == "corrupt"
        assert not store.path_for(fp_drop).exists()
        assert registry.flat_counters()[
            "result_store_evictions_total"
        ] == 1

    def test_stats_counts_by_reason(self, tmp_path):
        store, fp = self._stored(tmp_path)
        bad = make_identity(experiment=2)
        fp_bad = fingerprint_of(bad)
        store.put_result(fp_bad, make_result(experiment=2), bad)
        store.path_for(fp_bad).write_text("{")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["valid"] == 1
        assert stats["by_reason"] == {"ok": 1, "corrupt": 1}
        assert stats["total_bytes"] > 0


def _race_writer(root, barrier_dir, index):
    """One racing process: write the same fingerprint as everyone else."""
    store = ResultStore(root)
    identity = make_identity()
    fp = fingerprint_of(identity)
    # Crude start-line: spin until every sibling has registered.
    flag = os.path.join(barrier_dir, f"ready-{index}")
    with open(flag, "w") as fh:
        fh.write("x")
    while len(os.listdir(barrier_dir)) < 4:
        time.sleep(0.001)
    for _ in range(20):
        store.put_result(fp, make_result(), identity)
    return fp


class TestConcurrency:
    def test_two_processes_racing_same_key_converge(self, tmp_path):
        root = tmp_path / "store"
        barrier = tmp_path / "barrier"
        barrier.mkdir()
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_race_writer, args=(str(root), str(barrier), i)
            )
            for i in range(4)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        store = ResultStore(root)
        identity = make_identity()
        fp = fingerprint_of(identity)
        got = store.get_result(fp)
        assert got == make_result()
        # Exactly one whole entry on disk — no temp-file debris.
        entries = [p for p, _d, r in store.entries()]
        reasons = {r for _p, _d, r in store.entries()}
        assert len(entries) == 1
        assert reasons == {"ok"}
