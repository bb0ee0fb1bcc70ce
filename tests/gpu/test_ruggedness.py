"""Unit tests for the deterministic ruggedness term."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.ruggedness import (
    _seed_from_key,
    ruggedness_factor,
    standard_normal_hash,
)

#: FNV-1a seeds of the nine paper landscapes, recorded from the original
#: ``np.uint64`` implementation.
PAPER_SEEDS = {
    "add/gtx_980": 4813332677842936348,
    "add/titan_v": 5168246363540658114,
    "add/rtx_titan": 12083634261730667882,
    "harris/gtx_980": 16239420376780800326,
    "harris/titan_v": 12143367708276095624,
    "harris/rtx_titan": 6105520145100635344,
    "mandelbrot/gtx_980": 16719558205188975651,
    "mandelbrot/titan_v": 11748258973454225185,
    "mandelbrot/rtx_titan": 16737123495422244113,
}


def random_configs(n, seed=0):
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [
            rng.integers(1, 17, n), rng.integers(1, 17, n),
            rng.integers(1, 17, n), rng.integers(1, 9, n),
            rng.integers(1, 9, n), rng.integers(1, 9, n),
        ]
    )


class TestStandardNormalHash:
    def test_deterministic(self):
        cfgs = random_configs(100)
        a = standard_normal_hash(cfgs, "k/arch")
        b = standard_normal_hash(cfgs, "k/arch")
        np.testing.assert_array_equal(a, b)

    def test_order_independent(self):
        """Counter-based: any subset in any order gives identical values."""
        cfgs = random_configs(100)
        full = standard_normal_hash(cfgs, "k")
        perm = np.random.default_rng(1).permutation(100)
        shuffled = standard_normal_hash(cfgs[perm], "k")
        np.testing.assert_array_equal(full[perm], shuffled)

    def test_key_changes_landscape(self):
        cfgs = random_configs(200)
        a = standard_normal_hash(cfgs, "harris/titan_v")
        b = standard_normal_hash(cfgs, "harris/gtx_980")
        assert not np.allclose(a, b)

    def test_approximately_standard_normal(self):
        cfgs = random_configs(20000)
        z = standard_normal_hash(cfgs, "k")
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05
        # Roughly symmetric tails.
        assert 0.1 < (z > 1.0).mean() / 0.1587 < 1.9

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            standard_normal_hash(np.array([1, 2, 3]), "k")

    def test_single_column_change_decorrelates(self):
        cfgs = random_configs(5000)
        z0 = standard_normal_hash(cfgs, "k")
        bumped = cfgs.copy()
        bumped[:, 0] = (bumped[:, 0] % 16) + 1
        z1 = standard_normal_hash(bumped, "k")
        assert abs(np.corrcoef(z0, z1)[0, 1]) < 0.05


class TestSeed:
    @pytest.mark.parametrize("key", sorted(PAPER_SEEDS))
    def test_paper_seeds_unchanged_and_warning_free(self, key):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            uncached = _seed_from_key.__wrapped__(key)
            cached = _seed_from_key(key)
        assert uncached == cached == PAPER_SEEDS[key]
        assert uncached.dtype == np.uint64

    def test_memoized(self):
        assert _seed_from_key("k/memo") is _seed_from_key("k/memo")


class TestColumnForm:
    """A tuple of broadcastable columns hashes like the matrix of its rows."""

    def grid(self):
        return (
            np.array([3]), np.array([16]),
            np.arange(1, 17).reshape(16, 1, 1),
            np.arange(1, 9).reshape(8, 1), np.arange(1, 9), np.array([2]),
        )

    def rows(self, columns):
        shape = np.broadcast_shapes(*(c.shape for c in columns))
        return np.column_stack(
            [np.broadcast_to(c, shape).reshape(-1) for c in columns]
        )

    def test_hash_matches_matrix(self):
        columns = self.grid()
        z = standard_normal_hash(columns, "harris/titan_v")
        assert z.shape == (16, 8, 8)
        np.testing.assert_array_equal(
            z.reshape(-1),
            standard_normal_hash(self.rows(columns), "harris/titan_v"),
        )

    def test_factor_matches_matrix(self):
        columns = self.grid()
        for sigmas in ((0.3, 0.05), (0.0, 0.0)):
            f = ruggedness_factor(columns, "k", *sigmas)
            assert f.shape == (16, 8, 8)
            np.testing.assert_array_equal(
                f.reshape(-1),
                ruggedness_factor(self.rows(columns), "k", *sigmas),
            )


class TestRuggednessFactor:
    def test_zero_sigma_is_identity(self):
        cfgs = random_configs(50)
        np.testing.assert_array_equal(
            ruggedness_factor(cfgs, "k", 0.0, 0.0), np.ones(50)
        )

    def test_asymmetric_bounds(self):
        cfgs = random_configs(20000)
        f = ruggedness_factor(cfgs, "k", sigma_slow=0.3, sigma_fast=0.05)
        # Slowdowns can be large, speedups bounded by the small sigma.
        assert f.max() > 1.5
        assert f.min() > np.exp(-0.05 * 6)  # ~6 sigma floor
        assert f.min() < 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            ruggedness_factor(random_configs(5), "k", -0.1)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.2))
    @settings(max_examples=20)
    def test_always_positive(self, s_slow, s_fast):
        f = ruggedness_factor(random_configs(100), "k", s_slow, s_fast)
        assert np.all(f > 0)
