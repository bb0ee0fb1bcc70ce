"""Unit and property tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from repro.ml import tree as tree_module


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, (n, 2))
    y = np.where(X[:, 0] > 5.0, 10.0, -10.0)
    return X, y


class TestFitValidation:
    def test_rejects_1d_X(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.arange(5.0), np.arange(5.0))

    def test_rejects_mismatched_y(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.ones((5, 2)), np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))

    def test_rejects_nonfinite_targets(self):
        X = np.ones((3, 2))
        with pytest.raises(ValueError, match="non-finite"):
            DecisionTreeRegressor().fit(X, np.array([1.0, np.inf, 2.0]))

    def test_rejects_bad_hyperparams(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.ones((2, 2)))

    def test_predict_wrong_width(self):
        t = DecisionTreeRegressor().fit(*step_data())
        with pytest.raises(ValueError):
            t.predict(np.ones((2, 3)))


class TestLearning:
    def test_recovers_step_function(self):
        X, y = step_data()
        t = DecisionTreeRegressor().fit(X, y)
        Xt = np.array([[2.0, 5.0], [8.0, 5.0]])
        np.testing.assert_allclose(t.predict(Xt), [-10.0, 10.0])

    def test_split_at_true_boundary(self):
        X, y = step_data()
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        nodes = t._nodes  # flat arrays; node 0 is the root
        assert nodes.feature[0] == 0
        assert 4.0 < nodes.threshold[0] < 6.0

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).uniform(0, 1, (50, 3))
        t = DecisionTreeRegressor().fit(X, np.full(50, 7.0))
        assert t.node_count == 1
        np.testing.assert_allclose(t.predict(X[:5]), 7.0)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (300, 4))
        y = rng.standard_normal(300)
        t = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert t.depth <= 3

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (300, 4))
        y = rng.standard_normal(300)
        t = DecisionTreeRegressor(min_samples_leaf=25).fit(X, y)
        nodes = t._nodes
        reached = []  # the leaf each training row descends to
        for row in X:
            node = 0
            while nodes.feature[node] != -1:
                f = nodes.feature[node]
                node = nodes.left[node] + (not row[f] <= nodes.threshold[node])
            reached.append(node)
        counts = np.bincount(reached, minlength=nodes.feature.size)
        leaf_sizes = counts[nodes.feature == -1]
        assert leaf_sizes.min() >= 25
        assert leaf_sizes.sum() == 300

    def test_unbounded_tree_interpolates_unique_points(self):
        rng = np.random.default_rng(1)
        X = rng.permutation(100).reshape(-1, 1).astype(float)
        y = rng.standard_normal(100)
        t = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(t.predict(X), y)

    def test_integer_features_exact_thresholds(self):
        """Thresholds fall between consecutive integers."""
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert t._nodes.threshold[0] == pytest.approx(2.5)

    def test_duplicate_feature_values_handled(self):
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        y = np.array([1.0, 3.0, 10.0, 12.0])
        t = DecisionTreeRegressor(max_depth=1).fit(X, y)
        np.testing.assert_allclose(
            t.predict(np.array([[1.0], [2.0]])), [2.0, 11.0]
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_predictions_within_target_range(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (60, 3))
        y = rng.uniform(-5, 5, 60)
        t = DecisionTreeRegressor(max_depth=4).fit(X, y)
        preds = t.predict(rng.uniform(-1, 1, (40, 3)))
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9

    def test_feature_subsetting_reproducible(self):
        X, y = step_data(100)
        t1 = DecisionTreeRegressor(
            max_features=1, rng=np.random.default_rng(3)
        ).fit(X, y)
        t2 = DecisionTreeRegressor(
            max_features=1, rng=np.random.default_rng(3)
        ).fit(X, y)
        np.testing.assert_array_equal(t1.predict(X), t2.predict(X))


def reference_cart(X, y, max_depth, min_split, min_leaf):
    """Textbook CART, one node at a time: the arithmetic the level-
    synchronous builder must reproduce bit for bit.  Returns a predictor."""
    uniques = [np.unique(X[:, f]) for f in range(X.shape[1])]

    def build(idx, depth):
        y_node = y[idx]
        value = float(y_node.mean())
        if (idx.size < min_split
                or (max_depth is not None and depth >= max_depth)
                or np.ptp(y_node) == 0.0):
            return value
        tot_s, tot_q = float(y_node.sum()), float((y_node * y_node).sum())
        best = (np.inf, None, None)
        cum = [0, 0.0, 0.0]  # running totals over all features' bins
        for f, u in enumerate(uniques):
            base = list(cum)
            for j, v in enumerate(u):
                hit = X[idx, f] == v
                bin_s = bin_q = 0.0
                for w in y_node[hit]:
                    bin_s += w
                    bin_q += w * w
                cum = [cum[0] + int(hit.sum()), cum[1] + bin_s, cum[2] + bin_q]
                if j == u.size - 1:
                    continue
                left_n = float(cum[0] - base[0])
                right_n = idx.size - left_n
                if left_n < min_leaf or right_n < min_leaf:
                    continue
                left_s, left_q = cum[1] - base[1], cum[2] - base[2]
                sse = ((left_q - left_s**2 / left_n)
                       + ((tot_q - left_q) - (tot_s - left_s) ** 2 / right_n))
                if sse < best[0]:
                    best = (sse, f, 0.5 * (v + u[j + 1]))
        if best[1] is None:
            return value
        _, f, threshold = best
        mask = X[idx, f] <= threshold
        return (f, threshold, build(idx[mask], depth + 1),
                build(idx[~mask], depth + 1))

    root = build(np.arange(y.size), 0)

    def predict(Xq):
        out = []
        for row in Xq:
            node = root
            while isinstance(node, tuple):
                f, threshold, left, right = node
                node = left if row[f] <= threshold else right
            out.append(node)
        return np.array(out)

    return predict


class TestMatchesReferenceCart:
    """The builder against :func:`reference_cart`: the same predictions to
    the last bit, on integer grids with ties, duplicates and constant
    runs, for single trees and every tree of a bootstrapped forest."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 60),
        d=st.integers(1, 3),
        levels=st.integers(1, 6),
        max_depth=st.sampled_from([None, 1, 3]),
        min_split=st.integers(2, 5),
        min_leaf=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_tree_bit_identical(self, seed, n, d, levels, max_depth,
                                min_split, min_leaf):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, (n, d)).astype(float)
        y = np.round(rng.normal(size=n), 1)
        Xq = rng.integers(-1, levels + 1, (30, d)) + rng.choice([0, 0.5], (30, d))
        tree = DecisionTreeRegressor(max_depth, min_split, min_leaf).fit(X, y)
        ref = reference_cart(X, y, max_depth, min_split, min_leaf)
        assert tree.predict(Xq).tobytes() == ref(Xq).tobytes()

    def test_forest_trees_bit_identical(self):
        rng = np.random.default_rng(5)
        X = rng.integers(1, 9, (80, 3)).astype(float)
        y = np.round(rng.lognormal(size=80), 1)
        forest = RandomForestRegressor(
            n_estimators=6, rng=np.random.default_rng(9)
        ).fit(X, y)
        boot = np.random.default_rng(9)
        for tree in forest.trees:
            rows = boot.integers(0, 80, size=80)
            ref = reference_cart(X[rows], y[rows], None, 2, 1)
            assert tree.predict(X).tobytes() == ref(X).tobytes()

    def test_work_blocking_does_not_change_results(self, monkeypatch):
        """Split search in one-node blocks and descent one tree at a time
        give the same forest as the default block sizes."""
        rng = np.random.default_rng(6)
        X = rng.integers(1, 9, (90, 4)).astype(float)
        y = np.round(rng.lognormal(size=90), 1)

        def fit_predict():
            forest = RandomForestRegressor(
                n_estimators=8, rng=np.random.default_rng(1)
            ).fit(X, y)
            return forest.predict(X + 0.5)

        default = fit_predict()
        monkeypatch.setattr(tree_module, "_BLOCK_CELLS", 1)
        monkeypatch.setattr(tree_module, "_DESCENT_CELLS", 1)
        assert fit_predict().tobytes() == default.tobytes()
