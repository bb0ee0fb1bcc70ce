"""Unit tests for table generators."""

import numpy as np

from repro.experiments import ExperimentDesign, ExperimentResult, StudyResults
from repro.reporting import (
    render_significance,
    significance_matrix,
    table1_row,
    variance_table,
)


class TestTable1Row:
    def test_paper_design_row(self):
        row = table1_row(ExperimentDesign())
        assert row["samples"] == "25-400"
        assert row["experiments"] == "800-50"
        assert row["evaluations"] == "10"
        assert row["significance_test"] == "Mann-Whitney U"
        assert row["research_field"] == "Autotuning"

    def test_scaled_design_reports_true_scale(self):
        row = table1_row(
            ExperimentDesign(sample_sizes=(25, 100),
                             experiments_at_largest=5)
        )
        assert row["samples"] == "25-100"
        assert row["experiments"] == "20-5"


def synthetic_results(spread=0.02):
    res = StudyResults(optima={("add", "titan_v"): 0.8})
    rng = np.random.default_rng(0)
    for alg, base in (("rs", 1.0), ("ga", 0.8), ("rf", 1.01)):
        for exp in range(60):
            res.add(
                ExperimentResult(
                    algorithm=alg, kernel="add", arch="titan_v",
                    sample_size=25, experiment=exp,
                    final_runtime_ms=base * (1 + spread * rng.standard_normal()),
                    best_flat=exp, observed_best_ms=base, samples_used=25,
                )
            )
    return res


class TestSignificanceMatrix:
    def test_all_pairs_present(self):
        cells = significance_matrix(synthetic_results(), "add", "titan_v", 25)
        pairs = {(c.algorithm_a, c.algorithm_b) for c in cells}
        assert pairs == {("rs", "ga"), ("rs", "rf"), ("ga", "rf")}

    def test_clear_difference_significant(self):
        cells = significance_matrix(synthetic_results(), "add", "titan_v", 25)
        rs_ga = next(c for c in cells if {c.algorithm_a, c.algorithm_b}
                     == {"rs", "ga"})
        assert rs_ga.significant
        assert rs_ga.p_value < 0.01

    def test_one_percent_rule_blocks_tiny_delta(self):
        """rs vs rf differ by 1% in median: not 'significant' per the
        paper's combined criterion even if p is small."""
        cells = significance_matrix(
            synthetic_results(spread=0.001), "add", "titan_v", 25
        )
        rs_rf = next(c for c in cells if {c.algorithm_a, c.algorithm_b}
                     == {"rs", "rf"})
        assert abs(rs_rf.median_speedup - 1.0) < 0.02
        assert not rs_rf.significant

    def test_render(self):
        cells = significance_matrix(synthetic_results(), "add", "titan_v", 25)
        text = render_significance(cells)
        assert "pairwise comparisons" in text
        assert "speedup" in text
        assert render_significance([]) == "(no comparisons)"


class TestVarianceTable:
    def test_variance_decreases_with_sample_size(self):
        """Reproduce the Section V-B observation on synthetic data."""
        res = StudyResults()
        rng = np.random.default_rng(0)
        for size, spread in ((25, 0.3), (100, 0.1), (400, 0.03)):
            for exp in range(40):
                res.add(
                    ExperimentResult(
                        algorithm="rs", kernel="add", arch="titan_v",
                        sample_size=size, experiment=exp,
                        final_runtime_ms=1.0 + spread * abs(rng.standard_normal()),
                        best_flat=exp, observed_best_ms=1.0,
                        samples_used=size,
                    )
                )
        table = variance_table(res, "rs")
        assert table[25] > table[100] > table[400]
