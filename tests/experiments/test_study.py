"""Integration tests for study orchestration (small scale)."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentDesign,
    StudyConfig,
    build_tasks,
    run_study,
)
from repro.experiments.study import _collect_datasets, _needs_dataset


def tiny_config(**kwargs):
    defaults = dict(
        design=ExperimentDesign(sample_sizes=(25,), experiments_at_largest=2),
        algorithms=("random_search", "genetic_algorithm"),
        kernels=("add",),
        archs=("titan_v",),
        image_x=512,
        image_y=512,
        workers=1,
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


def _counters(results):
    """The study's counters by name, from ``metadata["metrics"]``."""
    return {
        name: family["series"][0]["value"]
        for name, family in results.metadata["metrics"].items()
    }


class TestConfig:
    def test_validate_ok(self):
        tiny_config().validate()

    def test_validate_bad_arch(self):
        with pytest.raises(KeyError):
            tiny_config(archs=("rtx_9090",)).validate()

    def test_validate_bad_algorithm(self):
        with pytest.raises(KeyError, match="unknown tuner"):
            tiny_config(algorithms=("simulated_annealing",)).validate()

    def test_validate_empty(self):
        with pytest.raises(ValueError):
            tiny_config(kernels=()).validate()

    def test_overrides_lookup(self):
        cfg = tiny_config(
            tuner_overrides=(("bo_gp", (("init_fraction", 0.2),)),)
        )
        assert dict(cfg.overrides_for("bo_gp")) == {"init_fraction": 0.2}
        assert cfg.overrides_for("random_search") == ()

    def test_needs_dataset_detection(self):
        assert _needs_dataset(tiny_config())
        assert not _needs_dataset(
            tiny_config(algorithms=("genetic_algorithm",))
        )


class TestTaskConstruction:
    def test_task_count(self):
        cfg = tiny_config(
            design=ExperimentDesign(sample_sizes=(25, 50),
                                    experiments_at_largest=2),
        )
        datasets = _collect_datasets(cfg)
        tasks = build_tasks(cfg, datasets)
        # 2 algorithms x 1 kernel x 1 arch x (E(25)=4 + E(50)=2).
        assert len(tasks) == 2 * (4 + 2)

    def test_dataset_attached_only_to_dataset_tuners(self):
        cfg = tiny_config()
        tasks = build_tasks(cfg, _collect_datasets(cfg))
        for t in tasks:
            if t.algorithm == "random_search":
                assert t.dataset_flats is not None
                assert len(t.dataset_flats) == t.sample_size
            else:
                assert t.dataset_flats is None

    def test_dataset_slices_disjoint_within_size(self):
        cfg = tiny_config()
        tasks = [
            t for t in build_tasks(cfg, _collect_datasets(cfg))
            if t.algorithm == "random_search"
        ]
        seen = set()
        for t in tasks:
            rows = set(t.dataset_flats)
            # Same slice must not be reused across experiments (overlap
            # of actual flat values could happen by chance; check by
            # (experiment, position) identity instead).
            key = (t.sample_size, t.experiment)
            assert key not in seen
            seen.add(key)


class TestRunStudy:
    def test_small_study_end_to_end(self):
        results = run_study(tiny_config())
        # 2 algorithms x 2 experiments.
        assert len(results) == 4
        assert results.optima  # true optimum computed
        pop = results.population("random_search", "add", "titan_v", 25)
        assert pop.shape == (2,)
        pct = results.percent_of_optimum(
            "random_search", "add", "titan_v", 25
        )
        assert np.all((pct > 0) & (pct <= 100.0 + 1e-9))

    def test_skip_optima(self):
        results = run_study(tiny_config(), compute_optima=False)
        assert results.optima == {}

    def test_parallel_matches_serial(self):
        serial = run_study(tiny_config(workers=1))
        parallel = run_study(tiny_config(workers=2))
        for r_s, r_p in zip(serial.results, parallel.results):
            assert r_s == r_p

    def test_metadata_recorded(self):
        results = run_study(tiny_config(), compute_optima=False)
        assert results.metadata["algorithms"] == [
            "random_search", "genetic_algorithm",
        ]
        assert results.metadata["total_experiments"] == 4


class TestStudyObservability:
    def test_results_carry_convergence_and_metrics(self):
        results = run_study(tiny_config(), compute_optima=False)
        for r in results.results:
            assert len(r.convergence) == r.samples_used
            # Best-so-far is non-increasing.
            assert all(
                b <= a for a, b in zip(r.convergence, r.convergence[1:])
            )
            assert r.metrics["evaluations_total"] == float(r.samples_used)

    def test_evaluations_total_is_samples_times_experiments(self):
        results = run_study(tiny_config(), compute_optima=False)
        counters = _counters(results)
        # 25 samples x 2 experiments x 2 algorithms.
        assert counters["evaluations_total"] == 100.0
        assert counters["simulator_evals_total"] > 0

    def test_metrics_in_metadata(self):
        import json

        results = run_study(tiny_config(), compute_optima=False)
        doc = results.metadata["metrics"]
        assert doc["evaluations_total"]["series"][0]["value"] == 100.0
        json.dumps(doc)  # JSON-serializable

    def test_trace_dir_produces_valid_per_cell_traces(self, tmp_path):
        """A traced study's trace validates, and its per-cell record —
        exactly ``sample_size`` evaluations per cell — is in each
        result's counters and curve, not in the trace."""
        from repro.obs import validate_trace_path
        from repro.obs.read import iter_trace_events

        trace = tmp_path / "trace"
        results = run_study(
            tiny_config(), compute_optima=False, trace_dir=trace
        )
        assert validate_trace_path(trace) == []
        assert {e["kind"] for e in iter_trace_events([trace])} == {"span"}
        assert len(results.results) == 4
        for result in results.results:
            assert result.metrics["evaluations_total"] == 25.0
            assert len(result.convergence) == 25

    def test_tracing_does_not_change_results(self, tmp_path):
        bare = run_study(tiny_config(), compute_optima=False)
        traced = run_study(
            tiny_config(), compute_optima=False,
            trace_dir=tmp_path / "trace",
        )
        assert bare.results == traced.results

    def test_metrics_survive_checkpoint_resume(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "study.jsonl"
        cfg = tiny_config()
        # First run: one cell fails, three complete and checkpoint.
        monkeypatch.setenv(
            "REPRO_FAIL_CELLS", "genetic_algorithm/add/titan_v/25/1"
        )
        run_study(
            cfg, compute_optima=False, checkpoint=ckpt,
            failure_policy="collect",
        )
        monkeypatch.delenv("REPRO_FAIL_CELLS")
        # Resume: only the failed cell reruns, yet the aggregate counts
        # every cell (resumed metrics reload with their results).
        resumed = run_study(cfg, compute_optima=False, checkpoint=ckpt)
        assert len(resumed) == 4
        assert _counters(resumed)["evaluations_total"] == 100.0
