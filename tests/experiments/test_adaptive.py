"""Adaptive sequential replication: stopping rule, parity, resume.

The adaptive engine's contract has three legs:

* **Validity** — stopping decisions come from anytime-valid
  (alpha-spending-corrected) bootstrap CIs on each group's median
  percent-of-optimum, evaluated at deterministic looks.
* **Parity** — every replication it *does* run is bit-identical to the
  fixed design's cell (same cell-key-derived RNG streams); a group that
  runs to its ceiling reproduces the fixed study exactly.
* **Durability** — stop decisions are checkpointed and replayed verbatim
  on resume, so a resumed adaptive study is bit-identical to an
  uninterrupted one, checkpoint file included.

``time.perf_counter`` is pinned for byte-level checkpoint comparisons,
same as the batched-engine parity suite.
"""

import json
import time

import pytest

from repro.experiments import (
    AdaptiveConfig,
    ExperimentDesign,
    StudyConfig,
    run_study,
)
from repro.experiments.optimum import clear_optimum_cache
from repro.experiments.runner import FAIL_CELLS_ENV
from repro.gpu.landscape import LANDSCAPE_CACHE_ENV, clear_landscape_memo
from repro.obs import validate_trace_path


@pytest.fixture(autouse=True)
def isolated(monkeypatch):
    monkeypatch.delenv(LANDSCAPE_CACHE_ENV, raising=False)
    monkeypatch.delenv(FAIL_CELLS_ENV, raising=False)
    clear_landscape_memo()
    clear_optimum_cache()
    yield
    clear_landscape_memo()
    clear_optimum_cache()


def smoke_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(
            sample_sizes=(25,), experiments_at_largest=16
        ),
        algorithms=("random_search",),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def loose():
    """Stops at the first look on any realistic smoke landscape."""
    return AdaptiveConfig(
        ci_target=50.0, batch_size=4, min_replications=4, n_resamples=200
    )


def strict():
    """Never satisfiable: every group runs to its ceiling."""
    return AdaptiveConfig(
        ci_target=1e-9, batch_size=4, min_replications=4, n_resamples=200
    )


class TestAdaptiveConfig:
    def test_replication_schedule_ends_at_ceiling(self):
        design = ExperimentDesign(
            sample_sizes=(25,), experiments_at_largest=14
        )
        cfg = AdaptiveConfig(batch_size=4, min_replications=4)
        assert cfg.replication_schedule(design, 25) == [4, 8, 12, 14]

    def test_max_replications_tightens_ceiling(self):
        design = ExperimentDesign(
            sample_sizes=(25,), experiments_at_largest=16
        )
        cfg = AdaptiveConfig(
            batch_size=4, min_replications=4, max_replications=10
        )
        assert cfg.ceiling_for(design, 25) == 10
        assert cfg.replication_schedule(design, 25) == [4, 8, 10]

    def test_ceiling_never_exceeds_design(self):
        # The fixed design sizes the pre-collected dataset; the adaptive
        # ceiling must stay within it.
        design = ExperimentDesign(
            sample_sizes=(25,), experiments_at_largest=6
        )
        cfg = AdaptiveConfig(
            batch_size=8, min_replications=8, max_replications=100
        )
        assert cfg.ceiling_for(design, 25) == 6
        assert cfg.replication_schedule(design, 25) == [6]

    def test_alpha_spending_sums_to_alpha(self):
        cfg = AdaptiveConfig(confidence=0.95)
        spent = sum(cfg.alpha_at_look(k) for k in range(1, 10_000))
        assert spent < 0.05
        assert spent == pytest.approx(0.05, rel=1e-3)
        assert cfg.confidence_at_look(1) == pytest.approx(0.975)

    def test_later_looks_are_stricter(self):
        cfg = AdaptiveConfig()
        confs = [cfg.confidence_at_look(k) for k in range(1, 6)]
        assert confs == sorted(confs)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(ci_target=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(confidence=1.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(batch_size=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(min_replications=1)
        with pytest.raises(ValueError):
            AdaptiveConfig(max_replications=1)
        with pytest.raises(ValueError):
            AdaptiveConfig(n_resamples=0)
        with pytest.raises(ValueError):
            AdaptiveConfig().alpha_at_look(0)


class TestAdaptiveStudy:
    def test_requires_compute_optima(self):
        with pytest.raises(ValueError, match="compute_optima"):
            run_study(
                smoke_config(), compute_optima=False, adaptive=loose()
            )

    def test_stops_early_and_results_match_fixed_prefix(self, tmp_path):
        config = smoke_config()
        cache = tmp_path / "cache"
        adaptive = run_study(config, landscape_cache=cache, adaptive=loose())
        meta = adaptive.metadata["adaptive"]
        (record,) = meta["groups"].values()
        assert record["reason"] == "ci_target"
        assert record["replications"] == 4
        assert record["look"] == 1
        assert record["halfwidth"] <= 50.0
        assert meta["replications_executed"] == 4
        assert meta["replications_saved"] == 12
        assert len(adaptive.results) == 4

        # Every replication it ran is bit-identical to the fixed study's.
        clear_optimum_cache()
        fixed = run_study(config, landscape_cache=cache)
        assert adaptive.results == fixed.results[:4]
        assert adaptive.optima == fixed.optima

    def test_ceiling_reproduces_fixed_study(self, tmp_path):
        config = smoke_config()
        cache = tmp_path / "cache"
        adaptive = run_study(
            config, landscape_cache=cache, adaptive=strict()
        )
        (record,) = adaptive.metadata["adaptive"]["groups"].values()
        assert record["reason"] == "ceiling"
        assert record["replications"] == 16
        assert len(record["looks"]) == 4
        assert adaptive.metadata["adaptive"]["replications_saved"] == 0

        clear_optimum_cache()
        fixed = run_study(config, landscape_cache=cache)
        assert adaptive.results == fixed.results

    def test_deterministic_across_runs_and_workers(self, tmp_path):
        cache = tmp_path / "cache"
        a = run_study(
            smoke_config(), landscape_cache=cache, adaptive=loose()
        )
        clear_optimum_cache()
        b = run_study(
            smoke_config(workers=2), landscape_cache=cache, adaptive=loose()
        )
        assert a.results == b.results
        assert a.metadata["adaptive"] == b.metadata["adaptive"]

    def test_smbo_tuner_supported(self, tmp_path):
        # Live (non-dataset) tuners go through the same loop; their cells
        # carry no dataset slice.
        config = smoke_config(
            algorithms=("bo_tpe",),
            design=ExperimentDesign(
                sample_sizes=(25,), experiments_at_largest=8
            ),
        )
        adaptive = run_study(
            config,
            landscape_cache=tmp_path / "cache",
            adaptive=AdaptiveConfig(
                ci_target=50.0,
                batch_size=2,
                min_replications=2,
                n_resamples=100,
            ),
        )
        (record,) = adaptive.metadata["adaptive"]["groups"].values()
        assert record["replications"] < 8
        assert all(r.algorithm == "bo_tpe" for r in adaptive.results)

    def test_failed_cells_excluded_from_ci(self, tmp_path, monkeypatch):
        bad_cell = "random_search/add/titan_v/25/1"
        monkeypatch.setenv(FAIL_CELLS_ENV, bad_cell)
        results = run_study(
            smoke_config(),
            landscape_cache=tmp_path / "cache",
            adaptive=loose(),
            failure_policy="collect",
        )
        assert [f["cell_key"] for f in results.failed_cells] == [bad_cell]
        (record,) = results.metadata["adaptive"]["groups"].values()
        # The failed replication still counts toward the dispatched
        # budget; the CI simply sees one fewer sample.
        assert record["replications"] == 4
        assert len(results.results) == 3

    def test_metrics_and_telemetry_record_savings(self, tmp_path):
        results = run_study(
            smoke_config(), landscape_cache=tmp_path / "cache",
            adaptive=loose(),
        )
        metrics = results.metadata["metrics"]
        saved = metrics["adaptive_replications_saved_total"]["series"][0]
        assert saved["value"] == 12.0
        executed = metrics["adaptive_replications_executed_total"][
            "series"
        ][0]
        assert executed["value"] == 4.0
        stopped = metrics["adaptive_groups_stopped_total"]["series"][0]
        assert stopped["labels"] == {"reason": "ci_target"}
        telemetry = results.metadata["telemetry"]
        assert telemetry["groups_stopped"] == 1
        assert telemetry["replications_saved"] == 12
        assert telemetry["total"] == 4

    def test_stop_events_traced_and_schema_valid(self, tmp_path):
        trace_dir = tmp_path / "traces"
        run_study(
            smoke_config(),
            landscape_cache=tmp_path / "cache",
            adaptive=loose(),
            trace_dir=trace_dir,
        )
        assert validate_trace_path(trace_dir) == []
        stops = [
            doc
            for path in trace_dir.glob("trace-*.jsonl")
            for line in path.read_text().splitlines()
            for doc in [json.loads(line)]
            if doc["kind"] == "adaptive_stop"
        ]
        (stop,) = stops
        assert stop["cell"] == "random_search/add/titan_v/25"
        assert stop["reason"] == "ci_target"
        assert stop["replications"] == 4
        assert stop["budget"] == 16

    def test_fixed_path_metadata_untouched(self, tmp_path):
        results = run_study(
            smoke_config(
                design=ExperimentDesign(
                    sample_sizes=(25,), experiments_at_largest=2
                )
            ),
            landscape_cache=tmp_path / "cache",
        )
        assert results.metadata["adaptive"] is None


class TestAdaptiveResume:
    def _config(self):
        # Two replication groups so the resume can replay one stop
        # decision while re-deriving the other.
        return smoke_config(
            design=ExperimentDesign(
                sample_sizes=(25, 50), experiments_at_largest=8
            )
        )

    def test_resume_is_bit_identical_and_replays_stops(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = self._config()
        cache = tmp_path / "cache"
        adaptive = AdaptiveConfig(
            ci_target=50.0, batch_size=4, min_replications=4,
            n_resamples=200,
        )

        full_ckpt = tmp_path / "full.jsonl"
        full = run_study(
            config,
            checkpoint=full_ckpt,
            landscape_cache=cache,
            adaptive=adaptive,
        )
        full_lines = full_ckpt.read_bytes().splitlines(keepends=True)
        stop_positions = [
            i
            for i, line in enumerate(full_lines)
            if json.loads(line).get("kind") == "stopped"
        ]
        assert len(stop_positions) == 2  # one decision per group

        # Interrupt just after the first stop decision: one group's
        # decision is on disk, the other group is mid-flight.
        clear_optimum_cache()
        resumed_ckpt = tmp_path / "resumed.jsonl"
        resumed_ckpt.write_bytes(
            b"".join(full_lines[: stop_positions[0] + 1])
        )
        resumed = run_study(
            config,
            checkpoint=resumed_ckpt,
            landscape_cache=cache,
            adaptive=adaptive,
        )

        assert resumed.results == full.results
        assert resumed.metadata["adaptive"]["groups_replayed"] == 1
        assert (
            resumed.metadata["adaptive"]["groups"]
            == full.metadata["adaptive"]["groups"]
        )
        assert sorted(resumed_ckpt.read_bytes().splitlines()) == sorted(
            full_ckpt.read_bytes().splitlines()
        )

    def test_resume_before_any_stop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
        config = self._config()
        cache = tmp_path / "cache"
        adaptive = AdaptiveConfig(
            ci_target=50.0, batch_size=4, min_replications=4,
            n_resamples=200,
        )
        full_ckpt = tmp_path / "full.jsonl"
        full = run_study(
            config,
            checkpoint=full_ckpt,
            landscape_cache=cache,
            adaptive=adaptive,
        )

        # Keep only the header, the plan line, and the first two
        # completed cells: every stopping decision must be re-derived,
        # identically.
        clear_optimum_cache()
        lines = full_ckpt.read_bytes().splitlines(keepends=True)
        resumed_ckpt = tmp_path / "resumed.jsonl"
        resumed_ckpt.write_bytes(b"".join(lines[:4]))
        resumed = run_study(
            config,
            checkpoint=resumed_ckpt,
            landscape_cache=cache,
            adaptive=adaptive,
        )
        assert resumed.results == full.results
        assert resumed.metadata["adaptive"]["groups_replayed"] == 0
        assert resumed.metadata["resumed_from_checkpoint"] == 2
        assert sorted(resumed_ckpt.read_bytes().splitlines()) == sorted(
            full_ckpt.read_bytes().splitlines()
        )
