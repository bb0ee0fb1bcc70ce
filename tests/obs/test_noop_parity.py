"""The zero-impact contract: observability must never change results.

Tracing and metrics are read-only taps — they consume no RNG and feed
nothing back into the search.  These tests run every live tuner twice
against the same landscape and seed, once bare and once fully observed
(JSONL tracer + metrics registry), and require bit-identical
``TuningResult``s plus an identical post-run RNG stream.
"""

import json

import numpy as np
import pytest

from repro.gpu import TITAN_V, SimulatedDevice
from repro.kernels import get_kernel
from repro.obs import JsonlTracer, MetricsRegistry
from repro.search import Objective, make_tuner

LIVE_TUNERS = ["genetic_algorithm", "bo_gp", "bo_tpe"]


def _run(tuner_name, budget, seed, tracer=None, metrics=None, cell=""):
    kernel = get_kernel("add", 512, 512)
    device = SimulatedDevice(
        TITAN_V, kernel.profile(), rng=np.random.default_rng(seed)
    )
    objective = Objective(
        kernel.space(),
        lambda c: device.measure(c).runtime_ms,
        budget=budget,
        tracer=tracer,
        metrics=metrics,
        cell=cell,
    )
    rng = np.random.default_rng(seed)
    tuner = make_tuner(tuner_name)
    result = tuner.run(objective, rng)
    # The post-run stream exposes any hidden RNG consumption.
    return result, rng.random(8).tolist(), objective.runtimes


@pytest.mark.parametrize("name", LIVE_TUNERS)
def test_observed_run_is_bit_identical(name, tmp_path):
    bare_result, bare_stream, bare_runtimes = _run(name, budget=20, seed=3)
    tracer = JsonlTracer(tmp_path / "trace.jsonl")
    registry = MetricsRegistry()
    obs_result, obs_stream, obs_runtimes = _run(
        name, budget=20, seed=3, tracer=tracer, metrics=registry,
        cell=f"{name}/add/titan_v/20/0",
    )
    tracer.close()

    assert obs_result.best_config == bare_result.best_config
    assert obs_result.best_runtime_ms == bare_result.best_runtime_ms
    assert obs_result.history_configs == bare_result.history_configs
    assert obs_result.history_runtimes == bare_result.history_runtimes
    assert obs_result.samples_used == bare_result.samples_used
    assert obs_stream == bare_stream
    assert obs_runtimes == bare_runtimes

    # And the observed run actually observed something.
    events = [
        json.loads(line)
        for line in (tmp_path / "trace.jsonl").read_text().splitlines()
    ]
    kinds = {e["kind"] for e in events}
    assert {"tuner_start", "evaluate", "tuner_end"} <= kinds
    assert sum(e["kind"] == "evaluate" for e in events) == 20
    assert registry.counter("evaluations_total").value == 20.0


class TestStudyLevelParity:
    """Spans, profiling, and the run ledger never change study results."""

    def _config(self):
        from repro.experiments import ExperimentDesign, StudyConfig

        return StudyConfig(
            design=ExperimentDesign(
                sample_sizes=(25,), experiments_at_largest=2
            ),
            algorithms=("random_search", "genetic_algorithm"),
            kernels=("add",),
            archs=("titan_v",),
            image_x=512,
            image_y=512,
            workers=1,
        )

    def test_fully_observed_study_is_bit_identical(self, tmp_path):
        from repro.experiments import run_study
        from repro.experiments.optimum import clear_optimum_cache
        from repro.obs.runs import build_manifest, list_runs, record_run

        cache = tmp_path / "cache"
        bare = run_study(self._config(), landscape_cache=cache)
        clear_optimum_cache()
        observed = run_study(
            self._config(),
            landscape_cache=cache,
            trace_dir=tmp_path / "trace",
            trace_level="full",
        )
        manifest = build_manifest(self._config(), observed, created=1000.0)
        record_run(tmp_path / "ledger", manifest)
        # ExperimentResult equality covers configs, runtimes, and
        # curves (the metrics payload is excluded by its dataclass
        # field, compare=False) — bit-identical modulo observability.
        assert observed.results == bare.results
        assert observed.optima == bare.optima
        # And the observability artifacts all materialized.
        assert [r["run_id"] for r in list_runs(tmp_path / "ledger")] == [
            manifest["run_id"]
        ]
        assert observed.metadata["metrics"]["evaluations_total"]
        assert {d["name"] for d in observed.metadata["spans"]} == {
            "study", "phase",
        }
        spans = [
            json.loads(line)
            for f in (tmp_path / "trace").glob("*.jsonl")
            for line in f.read_text().splitlines()
            if '"span"' in line
        ]
        assert any(e.get("name") == "study" for e in spans)

    def test_spans_only_level_emits_no_trajectory_events(self, tmp_path):
        from repro.experiments import run_study

        run_study(
            self._config(),
            landscape_cache=tmp_path / "cache",
            trace_dir=tmp_path / "trace",
            trace_level="spans",
        )
        kinds = {
            json.loads(line)["kind"]
            for f in (tmp_path / "trace").glob("*.jsonl")
            for line in f.read_text().splitlines()
            if line.strip()
        }
        assert kinds == {"span"}

    def test_invalid_trace_level_rejected(self, tmp_path):
        from repro.experiments import run_study

        with pytest.raises(ValueError, match="trace_level"):
            run_study(
                self._config(),
                landscape_cache=tmp_path / "cache",
                trace_dir=tmp_path / "trace",
                trace_level="verbose",
            )


def test_trace_matches_history(tmp_path):
    tracer = JsonlTracer(tmp_path / "trace.jsonl")
    result, _, _ = _run(
        "genetic_algorithm", budget=15, seed=9, tracer=tracer,
        metrics=MetricsRegistry(), cell="ga/add/titan_v/15/0",
    )
    tracer.close()
    events = [
        json.loads(line)
        for line in (tmp_path / "trace.jsonl").read_text().splitlines()
    ]
    evals = [e for e in events if e["kind"] == "evaluate"]
    assert [e["index"] for e in evals] == list(range(15))
    assert [e["runtime_ms"] for e in evals] == result.history_runtimes
    assert [e["config"] for e in evals] == result.history_configs
