"""Unit tests for the adaptive Parzen estimator (TPE substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ndtr

from repro.ml import AdaptiveParzenEstimator1D


class TestValidation:
    def test_invalid_range(self):
        with pytest.raises(ValueError):
            AdaptiveParzenEstimator1D(5, 4)

    def test_invalid_prior_weight(self):
        with pytest.raises(ValueError):
            AdaptiveParzenEstimator1D(0, 4, prior_weight=0.0)

    def test_observations_outside_range(self):
        est = AdaptiveParzenEstimator1D(1, 8)
        with pytest.raises(ValueError):
            est.fit(np.array([0]))

    def test_unfitted_raises(self):
        est = AdaptiveParzenEstimator1D(1, 8)
        with pytest.raises(RuntimeError):
            est.prob(np.array([1]))
        with pytest.raises(RuntimeError):
            est.sample(np.random.default_rng(0), 1)


class TestDensity:
    def test_probabilities_sum_to_one(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([3, 3, 4, 12]))
        p = est.prob(np.arange(1, 17))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_fit_is_prior_only(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([]))
        p = est.prob(np.arange(1, 17))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        # Wide prior: roughly flat, peaked mildly at the center.
        assert p.max() / p.min() < 4.0

    def test_mass_concentrates_on_observations(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(
            np.array([4, 4, 4, 4, 5, 4])
        )
        p = est.prob(np.arange(1, 17))
        assert np.argmax(p) + 1 in (4, 5)
        assert p[3] > 5 * p[12]

    def test_outside_range_zero(self):
        est = AdaptiveParzenEstimator1D(1, 8).fit(np.array([4]))
        p = est.prob(np.array([0, 9, 100]))
        np.testing.assert_array_equal(p, 0.0)

    def test_log_prob_matches_prob(self):
        est = AdaptiveParzenEstimator1D(1, 8).fit(np.array([2, 6]))
        v = np.arange(1, 9)
        np.testing.assert_allclose(est.log_prob(v), np.log(est.prob(v)))

    def test_adaptive_bandwidth_wider_when_isolated(self):
        """A lone observation far from others gets a wider bandwidth than
        clustered observations (Bergstra's adaptive rule)."""
        est = AdaptiveParzenEstimator1D(1, 100).fit(
            np.array([10, 11, 12, 90])
        )
        by_mu = dict(zip(est._mus[1:], est._sigmas[1:]))  # skip prior
        assert by_mu[90.0] > by_mu[11.0]

    def test_min_bandwidth_shrinks_with_more_observations(self):
        """HyperOpt clips bandwidths to prior/(1+n): more data allows
        sharper densities."""
        few = AdaptiveParzenEstimator1D(1, 100).fit(np.full(3, 50))
        many = AdaptiveParzenEstimator1D(1, 100).fit(np.full(60, 50))
        p_few = few.prob(np.array([50]))[0]
        p_many = many.prob(np.array([50]))[0]
        assert p_many > 2 * p_few

    @given(
        st.lists(st.integers(1, 16), min_size=0, max_size=30),
    )
    @settings(max_examples=40)
    def test_normalization_property(self, obs):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array(obs))
        p = est.prob(np.arange(1, 17))
        assert p.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.all(p >= 0)


class TestSampling:
    def test_samples_within_range(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4, 8]))
        s = est.sample(np.random.default_rng(0), 500)
        assert s.min() >= 1 and s.max() <= 16

    def test_samples_follow_density(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4] * 20))
        s = est.sample(np.random.default_rng(0), 2000)
        # Most mass near 4.
        assert np.median(s) in (3, 4, 5)

    def test_sample_count_validation(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4]))
        with pytest.raises(ValueError):
            est.sample(np.random.default_rng(0), 0)

    def test_reproducible(self):
        est = AdaptiveParzenEstimator1D(1, 16).fit(np.array([4, 9]))
        a = est.sample(np.random.default_rng(5), 50)
        b = est.sample(np.random.default_rng(5), 50)
        np.testing.assert_array_equal(a, b)


class TestMatchesReference:
    """``prob`` and ``sample`` against the textbook formulas, bit for bit:
    one CDF difference per (candidate, component), and one truncated
    normal draw loop per candidate on the caller's generator."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        span=st.integers(0, 40),
        n_obs=st.integers(0, 120),
    )
    @settings(max_examples=40, deadline=None)
    def test_prob_and_sample_bit_identical(self, seed, span, n_obs):
        rng = np.random.default_rng(seed)
        low, high = 2, 2 + span
        est = AdaptiveParzenEstimator1D(low, high).fit(
            rng.integers(low, high + 1, n_obs)
        )
        mus, sigmas = est._mus, est._sigmas
        v = np.concatenate([np.arange(low - 2, high + 3),
                            rng.uniform(low - 1, high + 1, 5)])
        hi = (v[:, None] + 0.5 - mus[None, :]) / sigmas[None, :]
        lo = (v[:, None] - 0.5 - mus[None, :]) / sigmas[None, :]
        trunc = np.maximum(ndtr((high + 0.5 - mus) / sigmas)
                           - ndtr((low - 0.5 - mus) / sigmas), 1e-300)
        p = ((ndtr(hi) - ndtr(lo)) / trunc[None, :]) @ est._weights
        inside = (v >= low) & (v <= high)
        expected = np.where(inside, np.maximum(p, 1e-300), 0.0)
        assert est.prob(v).tobytes() == expected.tobytes()

        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        draws = []
        for c in slow.choice(mus.size, size=30, p=est._weights):
            for _ in range(100):
                draw = slow.normal(mus[c], sigmas[c])
                if low - 0.5 <= draw <= high + 0.5:
                    break
            else:
                draw = slow.uniform(low - 0.5, high + 0.5)
            draws.append(int(np.clip(round(draw), low, high)))
        assert est.sample(fast, 30).tolist() == draws
        assert fast.integers(2**62) == slow.integers(2**62)

    def test_sample_fallback_bit_identical(self):
        """Picks that hit the 100-rejection uniform fallback, in a batch:
        the chunked draws rewind so the generator matches the reference
        loop's normal-then-uniform sequence exactly."""
        est = AdaptiveParzenEstimator1D(0, np.array([7, 15])).fit(
            np.array([[1, 4], [3, 9], [3, 9], [6, 15]])
        )
        est._sigmas = est._sigmas.copy()
        est._sigmas[:, 2] = 1e7  # accepts about one draw in 10**6
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        columns = []
        for mus, sigmas, high in zip(est._mus, est._sigmas, (7, 15)):
            col = []
            for c in slow.choice(mus.size, size=30, p=est._weights):
                for _ in range(100):
                    draw = slow.normal(mus[c], sigmas[c])
                    if -0.5 <= draw <= high + 0.5:
                        break
                else:
                    draw = slow.uniform(-0.5, high + 0.5)
                col.append(int(np.clip(round(draw), 0, high)))
            columns.append(col)
        assert est.sample(fast, 30).T.tolist() == columns
        assert fast.integers(2**62) == slow.integers(2**62)


class TestComponentDraws:
    """``sample`` picks components from one CDF built as
    ``Generator.choice`` builds it, by bisecting ``random(n)``: the picks
    and the generator state match a ``choice(m, size=n, p=w)`` call per
    dimension."""

    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [0.5, 0.5],
            [1.0, 0.0, 0.0, 2.0],
            [3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            list(np.geomspace(1.0, 1e-9, 12)),
            [0.0, 0.0, 1.0],
            [1e-3] * 40 + [5.0],
        ],
    )
    def test_picks_and_state_match_rng_choice(self, weights):
        weights = np.asarray(weights) / np.sum(weights)
        m, d = weights.size, 6
        highs = np.arange(10, 10 + 4 * d, 4)
        est = AdaptiveParzenEstimator1D(0, highs).fit(
            np.random.default_rng(m).integers(0, 11, (m - 1, d))
        )
        est._weights = weights
        fast, slow = np.random.default_rng(m), np.random.default_rng(m)
        columns = []
        for mus, sigmas, high in zip(est._mus, est._sigmas, highs):
            col = []
            for c in slow.choice(m, size=25, p=weights):
                for _ in range(100):
                    draw = slow.normal(mus[c], sigmas[c])
                    if -0.5 <= draw <= high + 0.5:
                        break
                else:
                    draw = slow.uniform(-0.5, high + 0.5)
                col.append(int(np.clip(round(draw), 0, high)))
            columns.append(col)
        assert est.sample(fast, 25).T.tolist() == columns
        assert fast.bit_generator.state == slow.bit_generator.state
