"""Unit tests for bootstrap confidence intervals."""

import numpy as np
import pytest

from repro.stats import DEFAULT_BOOTSTRAP_SEED, bootstrap_ci


class TestBootstrapCi:
    def test_interval_contains_estimate(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 2.0, 200)
        ci = bootstrap_ci(values, rng=np.random.default_rng(1))
        assert ci.low <= ci.estimate <= ci.high
        assert ci.estimate == pytest.approx(values.mean())

    def test_interval_narrows_with_more_data(self):
        rng = np.random.default_rng(0)
        small = bootstrap_ci(
            rng.normal(0, 1, 20), rng=np.random.default_rng(1)
        )
        large = bootstrap_ci(
            rng.normal(0, 1, 2000), rng=np.random.default_rng(1)
        )
        assert large.halfwidth < small.halfwidth

    def test_coverage_reasonable(self):
        """~95% of intervals should contain the true mean."""
        rng = np.random.default_rng(42)
        hits = 0
        n_trials = 200
        for _ in range(n_trials):
            sample = rng.normal(5.0, 1.0, 40)
            ci = bootstrap_ci(sample, n_resamples=400, rng=rng)
            hits += ci.low <= 5.0 <= ci.high
        assert 0.85 <= hits / n_trials <= 1.0

    def test_custom_statistic(self):
        values = np.array([1.0, 2.0, 3.0, 100.0])
        ci = bootstrap_ci(
            values, statistic=np.median, rng=np.random.default_rng(0)
        )
        assert ci.estimate == pytest.approx(2.5)

    def test_non_axis_statistic_fallback(self):
        values = np.arange(30.0)
        ci = bootstrap_ci(
            values,
            statistic=lambda v: float(np.sort(v)[-1]),
            n_resamples=100,
            rng=np.random.default_rng(0),
        )
        assert ci.estimate == 29.0

    def test_reproducible(self):
        values = np.random.default_rng(0).normal(0, 1, 50)
        a = bootstrap_ci(values, rng=np.random.default_rng(7))
        b = bootstrap_ci(values, rng=np.random.default_rng(7))
        assert (a.low, a.high) == (b.low, b.high)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(5), confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(5), n_resamples=0)


class TestDeterministicDefault:
    def test_default_rng_is_deterministic(self):
        values = np.random.default_rng(0).normal(0, 1, 50)
        a = bootstrap_ci(values)
        b = bootstrap_ci(values)
        assert (a.low, a.high) == (b.low, b.high)

    def test_default_matches_explicit_seed(self):
        values = np.random.default_rng(0).normal(0, 1, 50)
        a = bootstrap_ci(values)
        b = bootstrap_ci(values, rng=DEFAULT_BOOTSTRAP_SEED)
        assert (a.low, a.high) == (b.low, b.high)

    def test_int_seed_accepted(self):
        values = np.arange(30.0)
        a = bootstrap_ci(values, rng=7)
        b = bootstrap_ci(values, rng=np.random.default_rng(7))
        assert (a.low, a.high) == (b.low, b.high)
