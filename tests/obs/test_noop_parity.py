"""The zero-impact contract: observability must never change results.

Metrics and spans are read-only taps — they consume no RNG and feed
nothing back into the search.  A tuner run with a metrics registry must
give the bare run's ``TuningResult`` and leave its RNG stream where the
bare run leaves it.  A study run with a trace directory must run the
very same cell code as an untraced one: the same checkpoint bytes, the
same results and the same number of lockstep simulator passes, serially
and on process workers; its trace holds only the study, phase and
worker-chunk spans.
"""

import json
import os

import numpy as np
import pytest

import repro.experiments.runner as runner
from repro.experiments import ExperimentDesign, StudyConfig, run_study
from repro.experiments.optimum import clear_optimum_cache
from repro.gpu import TITAN_V, SimulatedDevice
from repro.kernels import get_kernel
from repro.obs import (
    TRACE_SCHEMA_VERSION,
    MetricsRegistry,
    validate_trace_path,
)
from repro.obs.read import iter_trace_events
from repro.search import Objective, make_tuner

LIVE_TUNERS = ["genetic_algorithm", "bo_gp", "bo_tpe"]


def _run(tuner_name, budget, seed, metrics=None):
    kernel = get_kernel("add", 512, 512)
    device = SimulatedDevice(
        TITAN_V, kernel.profile(), rng=np.random.default_rng(seed)
    )
    objective = Objective(
        kernel.space(),
        lambda c: device.measure(c).runtime_ms,
        budget=budget,
        metrics=metrics,
    )
    rng = np.random.default_rng(seed)
    result = make_tuner(tuner_name).tune(objective, rng)
    # The post-run stream exposes any hidden RNG consumption.
    return result, rng.random(8).tolist(), objective.runtimes


@pytest.mark.parametrize("name", LIVE_TUNERS)
def test_observed_run_is_bit_identical(name):
    bare_result, bare_stream, bare_runtimes = _run(name, budget=20, seed=3)
    registry = MetricsRegistry()
    obs_result, obs_stream, obs_runtimes = _run(
        name, budget=20, seed=3, metrics=registry
    )

    assert obs_result.best_config == bare_result.best_config
    assert obs_result.best_runtime_ms == bare_result.best_runtime_ms
    assert obs_result.history_configs == bare_result.history_configs
    assert obs_result.history_runtimes == bare_result.history_runtimes
    assert obs_result.samples_used == bare_result.samples_used
    assert obs_stream == bare_stream
    assert obs_runtimes == bare_runtimes
    # And the observed run actually observed something.
    assert registry.counter("evaluations_total").value == 20.0


class TestStudyLevelParity:
    """A trace directory adds spans around the study's phases and
    worker chunks, and nothing to the cells: profiling, the run ledger
    and tracing never change study results or what the engine runs."""

    def _config(self, workers=1):
        # 16 replications per group: on 2 process workers a group still
        # dispatches in batches of several cells (a batch holds at most
        # 1/16 of the study's cost), so both executors step cells in
        # lockstep.
        return StudyConfig(
            design=ExperimentDesign(
                sample_sizes=(25,), experiments_at_largest=16
            ),
            algorithms=(
                "random_search", "genetic_algorithm", "random_forest",
            ),
            kernels=("add",),
            archs=("titan_v",),
            image_x=512,
            image_y=512,
            workers=workers,
        )

    @staticmethod
    def _count_passes(monkeypatch, log):
        """Append one byte to ``log`` per ``resolve_together`` call, so
        forked pool workers' calls are counted too."""
        resolve = runner.resolve_together

        def counting(devices, requests):
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, b".")
            finally:
                os.close(fd)
            return resolve(devices, requests)

        monkeypatch.setattr(runner, "resolve_together", counting)

    @pytest.mark.parametrize(
        "executor,workers", [("serial", 1), ("process", 2)]
    )
    def test_same_checkpoint_results_and_passes(
        self, tmp_path, monkeypatch, executor, workers
    ):
        cache = tmp_path / "cache"
        run_study(self._config(), compute_optima=False, landscape_cache=cache)
        runs = {}
        for traced in (False, True):
            clear_optimum_cache()
            log = tmp_path / f"passes-{traced}"
            checkpoint = tmp_path / f"checkpoint-{traced}.jsonl"
            with monkeypatch.context() as patch:
                self._count_passes(patch, log)
                results = run_study(
                    self._config(workers),
                    landscape_cache=cache,
                    checkpoint=checkpoint,
                    executor=executor,
                    trace_dir=tmp_path / "trace" if traced else None,
                )
            runs[traced] = (
                results, checkpoint.read_bytes(), log.stat().st_size
            )
        (bare, bare_ckpt, bare_passes), (traced, traced_ckpt, passes) = (
            runs[False], runs[True],
        )
        assert traced_ckpt == bare_ckpt
        # ExperimentResult equality covers configs, runtimes and curves
        # (the metrics payload is compare=False).
        assert traced.results == bare.results
        assert traced.optima == bare.optima
        assert passes == bare_passes > 0
        assert (tmp_path / "trace").is_dir()

    def test_fully_observed_study_is_bit_identical(self, tmp_path):
        from repro.obs.runs import build_manifest, list_runs, record_run

        cache = tmp_path / "cache"
        bare = run_study(self._config(), landscape_cache=cache)
        clear_optimum_cache()
        observed = run_study(
            self._config(), landscape_cache=cache, trace_dir=tmp_path / "trace"
        )
        manifest = build_manifest(self._config(), observed, created=1000.0)
        record_run(tmp_path / "ledger", manifest)
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
        spans = list(iter_trace_events([tmp_path / "trace"]))
        assert any(e.get("name") == "study" for e in spans)

    def test_spans_only_level_emits_no_trajectory_events(self, tmp_path):
        """A trace holds spans only — study, phase and worker-chunk —
        and validates under the v3 schema."""
        trace = tmp_path / "trace"
        results = run_study(
            self._config(workers=2),
            landscape_cache=tmp_path / "cache",
            executor="process",
            trace_dir=trace,
        )
        assert TRACE_SCHEMA_VERSION == 3
        assert validate_trace_path(trace) == []
        events = list(iter_trace_events([trace]))
        assert {e["kind"] for e in events} == {"span"}
        assert {e["name"] for e in events} == {
            "study", "phase", "worker-chunk",
        }
        assert results.metadata["trace_dir"] == str(trace)
        assert "trace_level" not in results.metadata
        # Per-cell accounting lives in the counters every result carries.
        metrics = results.metadata["metrics"]
        assert metrics["evaluations_total"]["series"][0]["value"] == sum(
            r.samples_used for r in results.results
        )
        assert json.dumps(events)  # plain JSON throughout

    def test_invalid_trace_level_rejected(self, tmp_path):
        # ``trace_level`` stays a parameter whose only value is "spans".
        for level in ("full", "verbose"):
            with pytest.raises(ValueError, match="'spans'"):
                run_study(
                    self._config(),
                    landscape_cache=tmp_path / "cache",
                    trace_dir=tmp_path / "trace",
                    trace_level=level,
                )
        # The check comes first: nothing ran and nothing was written.
        assert not (tmp_path / "trace").exists()
