"""Unit tests for result containers, persistence, and derived metrics."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.experiments import ExperimentResult, StudyResults


def make_result(alg="rs", kernel="add", arch="titan_v", size=25, exp=0,
                runtime=1.0):
    return ExperimentResult(
        algorithm=alg,
        kernel=kernel,
        arch=arch,
        sample_size=size,
        experiment=exp,
        final_runtime_ms=runtime,
        best_flat=exp,
        observed_best_ms=runtime * 0.95,
        samples_used=size,
    )


@pytest.fixture
def results():
    res = StudyResults(optima={("add", "titan_v"): 0.5})
    for alg, base in (("rs", 1.0), ("ga", 0.8)):
        for exp in range(10):
            res.add(make_result(alg=alg, exp=exp,
                                runtime=base + 0.01 * exp))
    return res


class TestAxes:
    def test_axes_discovered(self, results):
        assert results.algorithms == ["rs", "ga"]
        assert results.kernels == ["add"]
        assert results.archs == ["titan_v"]
        assert results.sample_sizes == [25]

    def test_len(self, results):
        assert len(results) == 20


class TestPopulations:
    def test_population_values(self, results):
        pop = results.population("rs", "add", "titan_v", 25)
        assert pop.shape == (10,)
        assert pop[0] == pytest.approx(1.0)

    def test_missing_cell(self, results):
        with pytest.raises(KeyError):
            results.population("bo_gp", "add", "titan_v", 25)

    def test_missing_optimum(self, results):
        results.optima.clear()
        with pytest.raises(KeyError):
            results.percent_of_optimum("rs", "add", "titan_v", 25)


class TestDerivedMetrics:
    def test_percent_of_optimum(self, results):
        pct = results.percent_of_optimum("rs", "add", "titan_v", 25)
        assert pct[0] == pytest.approx(50.0)  # 0.5 / 1.0
        assert np.all(pct <= 50.0)

    def test_median_percent(self, results):
        med = results.median_percent_of_optimum("ga", "add", "titan_v", 25)
        assert 55.0 < med < 65.0

    def test_speedup_over(self, results):
        s = results.speedup_over("ga", "rs", "add", "titan_v", 25)
        assert s == pytest.approx(1.05 / 0.845, rel=0.02)
        assert s > 1.0

    def test_cles_over(self, results):
        c = results.cles_over("ga", "rs", "add", "titan_v", 25)
        assert c == 1.0  # ga always faster in this synthetic setup


class TestPersistence:
    def test_json_roundtrip(self, results, tmp_path):
        path = tmp_path / "res.json"
        results.metadata["note"] = "test"
        results.save(path)
        loaded = StudyResults.load(path)
        assert len(loaded) == len(results)
        assert loaded.metadata["note"] == "test"
        assert loaded.optima == results.optima
        np.testing.assert_array_equal(
            loaded.population("rs", "add", "titan_v", 25),
            results.population("rs", "add", "titan_v", 25),
        )

    def test_result_dataclass_roundtrip(self):
        r = make_result()
        doc = StudyResults([r]).to_json()
        loaded = StudyResults.from_json(doc)
        assert loaded.results[0] == r

    def test_shallow_dicts_serialise_like_asdict(self):
        r = replace(
            make_result(),
            convergence=[float("inf"), 1.5, 1.25],
            metrics={"evaluations_total": 25.0, "fit_seconds_sum": 0.3},
        )
        assert json.dumps(r.to_dict()) == json.dumps(asdict(r))
        durable = r.to_durable_dict()
        assert durable["metrics"] == {"evaluations_total": 25.0}
        assert list(durable) == list(asdict(r))
        assert r.metrics["fit_seconds_sum"] == 0.3

    def test_pre_observability_files_still_load(self):
        # Files written before convergence/metrics existed lack both keys.
        doc = (
            '{"results": [{"algorithm": "rs", "kernel": "add", '
            '"arch": "titan_v", "sample_size": 25, "experiment": 0, '
            '"final_runtime_ms": 1.0, "best_flat": 0, '
            '"observed_best_ms": 0.95, "samples_used": 25}]}'
        )
        loaded = StudyResults.from_json(doc)
        assert loaded.results[0].convergence == []
        assert loaded.results[0].metrics == {}


class TestConvergence:
    def _add_curves(self, res, curves, alg="rs"):
        for exp, curve in enumerate(curves):
            r = make_result(alg=alg, exp=exp)
            res.add(
                ExperimentResult(**{**r.__dict__, "convergence": curve})
            )

    def test_curves_stacked(self):
        res = StudyResults()
        self._add_curves(res, [[3.0, 2.0, 2.0], [4.0, 4.0, 1.0]])
        curves = res.convergence_curves("rs", "add", "titan_v", 25)
        np.testing.assert_array_equal(
            curves, [[3.0, 2.0, 2.0], [4.0, 4.0, 1.0]]
        )

    def test_ragged_curves_padded_with_final_best(self):
        res = StudyResults()
        self._add_curves(res, [[3.0, 2.0, 2.0], [4.0, 1.0]])
        curves = res.convergence_curves("rs", "add", "titan_v", 25)
        np.testing.assert_array_equal(
            curves, [[3.0, 2.0, 2.0], [4.0, 1.0, 1.0]]
        )

    def test_no_curves_raises(self):
        res = StudyResults([make_result()])  # default: empty convergence
        with pytest.raises(KeyError):
            res.convergence_curves("rs", "add", "titan_v", 25)

    def test_stats_median_and_iqr(self):
        res = StudyResults()
        self._add_curves(res, [[4.0, 2.0], [2.0, 2.0], [6.0, 5.0]])
        stats = res.convergence_stats("rs", "add", "titan_v", 25)
        np.testing.assert_array_equal(stats["median"], [4.0, 2.0])
        np.testing.assert_array_equal(stats["n"], [3, 3])
        assert stats["q1"][0] == pytest.approx(3.0)
        assert stats["q3"][0] == pytest.approx(5.0)

    def test_stats_mask_inf_entries(self):
        res = StudyResults()
        self._add_curves(
            res, [[np.inf, 3.0], [5.0, 4.0]]
        )
        stats = res.convergence_stats("rs", "add", "titan_v", 25)
        assert stats["median"][0] == 5.0  # inf excluded, one finite value
        np.testing.assert_array_equal(stats["n"], [1, 2])

    def test_stats_all_inf_index_is_nan(self):
        res = StudyResults()
        self._add_curves(res, [[np.inf, 2.0], [np.inf, 3.0]])
        stats = res.convergence_stats("rs", "add", "titan_v", 25)
        assert np.isnan(stats["median"][0])
        assert stats["n"][0] == 0


class TestMetricsField:
    def test_metrics_excluded_from_equality(self):
        a = make_result()
        b = ExperimentResult(
            **{**a.__dict__, "metrics": {"evaluate_seconds_sum": 0.123}}
        )
        # Wall-clock metrics must not break the checkpoint-resume
        # bit-identical contract.
        assert a == b

    def test_convergence_included_in_equality(self):
        a = make_result()
        b = ExperimentResult(**{**a.__dict__, "convergence": [1.0]})
        assert a != b
