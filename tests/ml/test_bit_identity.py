"""Bit-identity fixtures for the surrogate substrates.

Each test pins the sha256 of the raw bytes (``ndarray.tobytes()``) a
model produces at a fixed seed.  The models' hot paths are free to change
*how* they compute — vectorised builders, direct LAPACK calls, fewer
Python-level operations — but not one bit of *what* they compute, because
the study results (and every figure built on them) depend on these
numbers and on the RNG draws the models consume.  A deliberate change to
the numbers is a re-baseline: update the pinned digest in the same commit
and say why.
"""

import hashlib

import numpy as np

from repro.ml import (
    AdaptiveParzenEstimator1D,
    DecisionTreeRegressor,
    GaussianProcessRegressor,
    RandomForestRegressor,
    penalize_failures,
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def tuning_data(n=120, seed=11):
    """Integer features with duplicate rows, tied targets and failures."""
    rng = np.random.default_rng(seed)
    X = rng.integers(1, 9, size=(n, 6)).astype(np.float64)
    X[n - 20:] = X[:20]  # duplicate rows...
    y = np.round(rng.lognormal(1.0, 0.8, n), 1)  # ...tied targets...
    y[n - 20:n - 10] = y[:10]
    y[rng.choice(n, 12, replace=False)] = np.inf  # ...launch failures
    return X, penalize_failures(y)


def query_points(n=300, seed=12):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10, size=(n, 6)).astype(np.float64)


def test_forest_predictions_pinned():
    X, y = tuning_data()
    Xq = query_points()
    forest = RandomForestRegressor(
        n_estimators=30, rng=np.random.default_rng(3)
    ).fit(X, y)
    out = [forest.predict(Xq), forest.predict_std(Xq),
           np.array([forest.oob_score()])]
    shallow = RandomForestRegressor(
        n_estimators=10, max_depth=4, min_samples_leaf=3,
        min_samples_split=7, rng=np.random.default_rng(4),
    ).fit(X, y)
    out.append(shallow.predict(Xq))
    bagless = RandomForestRegressor(
        n_estimators=3, bootstrap=False, rng=np.random.default_rng(5)
    ).fit(X, y)
    out.append(bagless.predict(Xq))
    assert digest(*out) == (
        "1edc75570c74fcfc12f03668c8f04e5436f23f7eb23c82729d233a094ffe06d9"
    )


def test_tree_predictions_pinned():
    rng = np.random.default_rng(21)
    X = rng.uniform(-3, 3, (200, 4))
    X[:, 2] = np.round(X[:, 2])  # a low-cardinality column
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.standard_normal(200)
    Xq = rng.uniform(-4, 4, (150, 4))
    out = []
    for kwargs in ({}, {"max_depth": 3}, {"min_samples_leaf": 9}):
        tree = DecisionTreeRegressor(**kwargs).fit(X, y)
        out += [tree.predict(Xq), np.array([tree.node_count, tree.depth])]
    assert digest(*out) == (
        "1109686f4ade5e7876512d1b0a70e5019188e49256a3b0f8150fb713d0e3262f"
    )


def test_parzen_sample_and_log_prob_pinned():
    out = []
    cases = [
        (0, 15, []),                                 # prior only
        (0, 15, [3]),
        (0, 15, [0, 0, 1, 15, 15, 7, 7, 7, 8]),      # edge + tied obs
        (0, 7, [2, 5, 5, 6]),
        (4, 4, [4, 4]),                              # degenerate range
        (0, 255, list(range(0, 256, 9))),
    ]
    for seed, (low, high, values) in enumerate(cases):
        est = AdaptiveParzenEstimator1D(low, high, prior_weight=1.0)
        est.fit(np.asarray(values, dtype=np.int64))
        rng = np.random.default_rng(100 + seed)
        draws = est.sample(rng, 24)
        grid = np.arange(low - 1, high + 2)
        out += [draws, est.log_prob(draws), est.prob(grid),
                rng.integers(0, 2**31, 4)]  # stream position afterwards
    assert digest(*out) == (
        "17bd29e72fe12b0f434207ac8b7680234f7991a716b2a2e91b30d20ea3ac922c"
    )


def gp_data(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(1, 17, size=(n, 6)).astype(np.float64)
    y = np.log(rng.lognormal(1.0, 0.5, n) + 0.1 * X[:, 0])
    return X, y


def test_gp_predictions_pinned():
    X, y = gp_data(40, 31)
    Xq = gp_data(64, 32)[0]
    gp = GaussianProcessRegressor(n_restarts=1, rng=np.random.default_rng(7))
    gp.fit(X[:30], y[:30])                     # cold optimising fit
    out = [*gp.predict(Xq, return_std=True), gp._theta]
    gp.fit(X[:35], y[:35], optimize=False)     # refactorise only
    out += [*gp.predict(Xq, return_std=True)]
    gp.fit(X, y)                               # warm optimising refit
    out += [*gp.predict(Xq, return_std=True), gp._theta,
            np.array([gp.log_marginal_likelihood()])]
    rbf = GaussianProcessRegressor(
        kernel="rbf", n_restarts=2, rng=np.random.default_rng(8)
    ).fit(X, y)
    out += [*rbf.predict(Xq, return_std=True)]
    assert digest(*out) == (
        "7bcaa2705ae050711d90656fd348b740a82f8c9efaeca73f5e1094894a0cb96f"
    )
