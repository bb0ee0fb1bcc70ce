"""Table-backed vs live studies must be byte-identical.

The landscape-table fast path's whole contract is *bit-identity*: same
runtimes, same RNG consumption, same checkpoints — with or without the
cache.  These tests run the same smoke study twice (tables on / tables
off) and compare results, optima, and the raw checkpoint files.

Wall-clock timing sums in ``ExperimentResult.metrics``
(``evaluate_seconds_sum`` & co.) are the one legitimately nondeterministic
payload in a checkpoint line, so ``time.perf_counter`` is pinned to a
constant for the byte-level comparison; the study runs serial
(``workers=1``) so the pin applies to every cell.
"""

import time

import pytest

from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def smoke_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=("random_search", "genetic_algorithm", "bo_gp"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestStudyParity:
    def test_results_and_optima_identical(self, tmp_path):
        config = smoke_config()
        live = run_study(config)
        clear_optimum_cache()
        backed = run_study(config, landscape_cache=tmp_path / "cache")
        assert backed.metadata["landscape_cache"] == str(tmp_path / "cache")
        assert live.metadata["landscape_cache"] is None

        assert live.results == backed.results
        assert live.optima == backed.optima
        # Spot-check the payloads are *exactly* equal, not approximately.
        for a, b in zip(live.results, backed.results):
            assert a.final_runtime_ms == b.final_runtime_ms
            assert a.observed_best_ms == b.observed_best_ms
            assert a.best_flat == b.best_flat
            assert a.convergence == b.convergence

    def test_checkpoints_byte_identical_including_resume(
        self, tmp_path, monkeypatch
    ):
        # Pin the only nondeterministic checkpoint payload (timing sums).
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = smoke_config()

        live_ckpt = tmp_path / "live.jsonl"
        run_study(config, checkpoint=live_ckpt)
        clear_optimum_cache()

        backed_ckpt = tmp_path / "backed.jsonl"
        run_study(
            config,
            checkpoint=backed_ckpt,
            landscape_cache=tmp_path / "cache",
        )
        assert live_ckpt.read_bytes() == backed_ckpt.read_bytes()

        # Resuming a live checkpoint with tables on completes it to the
        # same bytes a fresh table-backed run would produce: drop the
        # trailing lines and rerun.
        clear_optimum_cache()
        lines = live_ckpt.read_bytes().splitlines(keepends=True)
        assert len(lines) > 4
        resumed_ckpt = tmp_path / "resumed.jsonl"
        # Header + plan line + first two completed cells.
        resumed_ckpt.write_bytes(b"".join(lines[:4]))
        resumed = run_study(
            config,
            checkpoint=resumed_ckpt,
            landscape_cache=tmp_path / "cache",
        )
        assert resumed.metadata["resumed_from_checkpoint"] == 2
        full = run_study(config, landscape_cache=tmp_path / "cache")
        assert resumed.results == full.results
        # Same set of result lines, modulo completion order (the resumed
        # file appends the remaining cells after the kept prefix).
        assert sorted(resumed_ckpt.read_bytes().splitlines()) == sorted(
            live_ckpt.read_bytes().splitlines()
        )

    def test_checkpoints_byte_identical_with_late_launch_failure(
        self, tmp_path, monkeypatch
    ):
        # A harris GA run whose first launch failure comes after its first
        # evaluation: the per-cell metrics must keep one key order on
        # both measurement routes.
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = smoke_config(
            algorithms=("genetic_algorithm",), kernels=("harris",)
        )
        live_ckpt = tmp_path / "live.jsonl"
        run_study(config, checkpoint=live_ckpt)
        clear_optimum_cache()
        backed_ckpt = tmp_path / "backed.jsonl"
        run_study(
            config, checkpoint=backed_ckpt, landscape_cache=tmp_path / "cache"
        )
        assert b'"launch_failures_total": 1.0' in live_ckpt.read_bytes()
        assert live_ckpt.read_bytes() == backed_ckpt.read_bytes()

    def test_env_var_enables_tables(self, tmp_path, monkeypatch):
        config = smoke_config(algorithms=("genetic_algorithm",))
        live = run_study(config)
        clear_optimum_cache()
        monkeypatch.setenv(LANDSCAPE_CACHE_ENV, str(tmp_path / "envcache"))
        backed = run_study(config)
        assert backed.metadata["landscape_cache"] == str(
            tmp_path / "envcache"
        )
        assert (tmp_path / "envcache").exists()
        assert live.results == backed.results

    def test_warm_cache_reused_across_studies(self, tmp_path):
        config = smoke_config(algorithms=("genetic_algorithm",))
        cache = tmp_path / "cache"
        first = run_study(config, landscape_cache=cache)
        sidecars = sorted(p.name for p in cache.glob("*.json"))
        assert len(sidecars) == 1
        clear_optimum_cache()
        clear_landscape_memo()
        second = run_study(config, landscape_cache=cache)
        assert first.results == second.results
        assert first.optima == second.optima
        assert sorted(p.name for p in cache.glob("*.json")) == sidecars
