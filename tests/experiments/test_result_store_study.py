"""run_study + the content-addressed result store.

The acceptance invariants:

* store **off** vs store **on-but-cold**: byte-identical checkpoints,
  identical results — a cold store changes nothing;
* store **warm**: every cell answered by lookup, dataset collection
  skipped, and the simulator never runs during the experiments phase;
* store hits stream into the checkpoint, so a later resume needs
  neither the store nor a re-run.
"""

import pytest

from repro.experiments import (
    ExperimentDesign,
    StudyConfig,
    run_study,
)
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import clear_landscape_memo
from repro.store import STORE_ENV, ResultStore


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(STORE_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def tiny_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=("random_search", "random_forest"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def run(tmp_path, name, lines=None, **kwargs):
    ckpt = tmp_path / f"{name}.jsonl"
    results = run_study(
        tiny_config(),
        checkpoint=str(ckpt),
        landscape_cache=str(tmp_path / "cache"),
        progress=lines.append if lines is not None else False,
        **kwargs,
    )
    return results, ckpt.read_bytes()


def result_key(results):
    return [
        (r.algorithm, r.kernel, r.arch, r.sample_size, r.experiment,
         r.final_runtime_ms, r.best_flat, r.observed_best_ms,
         tuple(r.convergence))
        for r in results.results
    ]


class TestColdStoreIsInvisible:
    def test_off_vs_cold_byte_identical(self, tmp_path):
        off, off_bytes = run(tmp_path, "off", result_store=False)
        cold, cold_bytes = run(
            tmp_path, "cold", result_store=tmp_path / "store"
        )
        assert cold_bytes == off_bytes
        assert result_key(cold) == result_key(off)
        assert off.metadata["result_store"] is None
        assert off.metadata["store_hits"] == 0
        assert cold.metadata["result_store"] == str(tmp_path / "store")
        assert cold.metadata["store_hits"] == 0


class TestWarmStore:
    def test_warm_study_answers_every_cell(self, tmp_path):
        store = tmp_path / "store"
        cold, _ = run(tmp_path, "cold", result_store=store)
        lines = []
        warm, _ = run(tmp_path, "warm", lines=lines, result_store=store)
        assert result_key(warm) == result_key(cold)
        total = warm.metadata["total_experiments"]
        assert warm.metadata["store_hits"] == total
        flat = {
            name: family["series"][0]["value"]
            for name, family in warm.metadata["metrics"].items()
        }
        assert flat.get("result_store_hits_total", 0) >= total
        # The simulator never ran: landscapes came from cache, dataset
        # collection was skipped, every cell was a lookup.
        assert flat.get("simulator_evals_total", 0) == 0
        assert any("cells warm" in line for line in lines)
        assert any(
            "dataset collection skipped" in line for line in lines
        )

    def test_store_hits_stream_into_checkpoint(self, tmp_path):
        """A checkpoint fed purely by store hits resumes without either."""
        store = tmp_path / "store"
        cold, _ = run(tmp_path, "cold", result_store=store)
        _warm, warm_ckpt_bytes = run(
            tmp_path, "warm", result_store=store
        )
        assert warm_ckpt_bytes  # hits were recorded, not just returned
        resumed = run_study(
            tiny_config(),
            checkpoint=str(tmp_path / "warm.jsonl"),
            landscape_cache=str(tmp_path / "cache"),
            result_store=False,
        )
        assert result_key(resumed) == result_key(cold)
        assert resumed.metadata["resumed_from_checkpoint"] == (
            cold.metadata["total_experiments"]
        )

    def test_checkpointed_cells_migrate_into_store(self, tmp_path):
        """A finished checkpoint warms the store for everyone else."""
        cold, _ = run(tmp_path, "first", result_store=False)
        store = tmp_path / "store"
        # Same checkpoint, store now attached: cells replay from the
        # checkpoint and are written back to the store.
        second = run_study(
            tiny_config(),
            checkpoint=str(tmp_path / "first.jsonl"),
            landscape_cache=str(tmp_path / "cache"),
            result_store=store,
        )
        assert result_key(second) == result_key(cold)
        # A third run with a fresh checkpoint is warm purely via store.
        third, _ = run(tmp_path, "third", result_store=store)
        assert result_key(third) == result_key(cold)
        assert third.metadata["store_hits"] == (
            cold.metadata["total_experiments"]
        )

    def test_partial_store_runs_only_missing_cells(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold, _ = run(tmp_path, "cold", result_store=store)
        # Evict roughly half the entries.
        paths = [p for p, _d, r in store.entries() if r == "ok"]
        for path in paths[: len(paths) // 2]:
            path.unlink()
        partial, _ = run(tmp_path, "partial", result_store=store)
        assert result_key(partial) == result_key(cold)
        kept = len(paths) - len(paths) // 2
        assert partial.metadata["store_hits"] == kept
