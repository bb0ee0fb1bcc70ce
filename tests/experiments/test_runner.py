"""Unit tests for single-experiment execution."""

import numpy as np
import pytest

from repro.experiments import ExperimentTask, run_experiment
from repro.experiments.dataset import collect_dataset
from repro.gpu import TITAN_V, SimulatedDevice
from repro.kernels import get_kernel


def make_task(algorithm="genetic_algorithm", sample_size=25, **kwargs):
    defaults = dict(
        algorithm=algorithm,
        kernel="add",
        arch="titan_v",
        sample_size=sample_size,
        experiment=0,
        root_seed=123,
        image_x=1024,
        image_y=1024,
        final_repeats=10,
    )
    defaults.update(kwargs)
    return ExperimentTask(**defaults)


def dataset_slice(sample_size, seed=0):
    kernel = get_kernel("add", 1024, 1024)
    device = SimulatedDevice(
        TITAN_V, kernel.profile(), rng=np.random.default_rng(seed)
    )
    ds = collect_dataset(
        device, kernel.space(), sample_size, np.random.default_rng(seed)
    )
    return tuple(int(f) for f in ds.flats), tuple(
        float(r) for r in ds.runtimes_ms
    )


class TestLiveTuners:
    def test_ga_experiment_end_to_end(self):
        result = run_experiment(make_task())
        assert result.algorithm == "genetic_algorithm"
        assert result.sample_size == 25
        assert result.samples_used == 25
        assert np.isfinite(result.final_runtime_ms)
        assert result.final_runtime_ms > 0

    def test_reproducible_across_calls(self):
        a = run_experiment(make_task())
        b = run_experiment(make_task())
        assert a.final_runtime_ms == b.final_runtime_ms
        assert a.best_flat == b.best_flat

    def test_different_experiments_differ(self):
        a = run_experiment(make_task(experiment=0))
        b = run_experiment(make_task(experiment=1))
        assert a.best_flat != b.best_flat or (
            a.final_runtime_ms != b.final_runtime_ms
        )

    def test_final_runtime_close_to_observed(self):
        """10x re-evaluation mean should be near (not equal to) the
        best single observation."""
        r = run_experiment(make_task(sample_size=50))
        assert r.final_runtime_ms == pytest.approx(
            r.observed_best_ms, rel=0.8
        )
        assert r.final_runtime_ms != r.observed_best_ms


class TestDatasetTuners:
    def test_rs_uses_slice(self):
        flats, runtimes = dataset_slice(25)
        result = run_experiment(
            make_task(
                algorithm="random_search",
                dataset_flats=flats,
                dataset_runtimes=runtimes,
            )
        )
        assert result.samples_used == 25
        # RS picks the argmin of the slice.
        assert result.observed_best_ms == pytest.approx(min(runtimes))

    def test_rf_splits_train_and_live(self):
        flats, runtimes = dataset_slice(25)
        result = run_experiment(
            make_task(
                algorithm="random_forest",
                dataset_flats=flats,
                dataset_runtimes=runtimes,
                tuner_kwargs=(("n_estimators", 10),
                              ("candidate_pool", 256)),
            )
        )
        # 15 train rows + 10 live top-k evaluations.
        assert result.samples_used == 25

    def test_missing_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset"):
            run_experiment(make_task(algorithm="random_search"))

    def test_wrong_slice_size_rejected(self):
        flats, runtimes = dataset_slice(10)
        with pytest.raises(ValueError, match="rows"):
            run_experiment(
                make_task(
                    algorithm="random_search",
                    sample_size=25,
                    dataset_flats=flats,
                    dataset_runtimes=runtimes,
                )
            )


class TestSeeding:
    def test_cell_key_uniqueness(self):
        keys = {
            make_task(algorithm=a, sample_size=s, experiment=e).cell_key
            for a in ("bo_gp", "bo_tpe")
            for s in (25, 50)
            for e in (0, 1)
        }
        assert len(keys) == 8

    def test_root_seed_changes_everything(self):
        a = run_experiment(make_task(root_seed=1))
        b = run_experiment(make_task(root_seed=2))
        assert a.final_runtime_ms != b.final_runtime_ms


class TestSurrogateMetricOrder:
    """A cell's counters follow registration order, and checkpoint bytes
    follow that order.  The surrogate tuners register the
    ``model_fit_seconds`` / ``propose_seconds`` timing pairs from their
    spans, between the evaluation counters and the final-repeat ones."""

    ORDER = {
        "bo_gp": (
            "evaluations_total",
            "evaluate_seconds_sum", "evaluate_seconds_count",
            "model_fit_seconds_sum", "model_fit_seconds_count",
            "propose_seconds_sum", "propose_seconds_count",
            "launch_failures_total",
            "device_launches_total", "final_repeats_total",
        ),
        "bo_tpe": (
            "evaluations_total",
            "evaluate_seconds_sum", "evaluate_seconds_count",
            "launch_failures_total",
            "model_fit_seconds_sum", "model_fit_seconds_count",
            "device_launches_total", "final_repeats_total",
        ),
    }

    @pytest.mark.parametrize("algorithm", sorted(ORDER))
    def test_metric_keys_in_registration_order(self, algorithm, tmp_path):
        result = run_experiment(
            make_task(
                algorithm=algorithm,
                image_x=512,
                image_y=512,
                landscape_cache=str(tmp_path / "cache"),
            )
        )
        assert tuple(result.metrics) == self.ORDER[algorithm]
