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
from scipy.optimize import minimize

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


PARZEN_CARDS = np.array([16, 16, 16, 8, 8, 8])


def parzen_batch_data():
    """Six integer dimensions with tied rows, split 3 good / 37 bad.

    Three good rows leave the prior a quarter of ``l``'s weight, and the
    prior's draws land outside the range often, so sampling rejects."""
    rng = np.random.default_rng(41)
    obs = rng.integers(0, PARZEN_CARDS, size=(40, 6))
    obs[25:35] = obs[:10]
    return obs[:3], obs[3:]


def test_parzen_batch_matches_scalar_estimators():
    good, bad = parzen_batch_data()
    highs = PARZEN_CARDS - 1
    l_est = AdaptiveParzenEstimator1D(0, highs).fit(good)
    g_est = AdaptiveParzenEstimator1D(0, highs).fit(bad)
    rng = np.random.default_rng(43)
    batch = []
    for est, n in ((l_est, 24), (g_est, 50)):
        draws = est.sample(rng, n)
        batch += [draws, l_est.log_prob(draws), g_est.log_prob(draws)]
    batch.append(rng.integers(0, 2**31, 4))  # stream position afterwards

    # The same numbers from six scalar estimators per side, in the
    # per-dimension order TPE used before the batch existed.
    rng = np.random.default_rng(43)
    scalar = []
    for side, n in ((0, 24), (1, 50)):
        cols = [[], [], []]
        for d, high in enumerate(highs):
            l_1d = AdaptiveParzenEstimator1D(0, high).fit(good[:, d])
            g_1d = AdaptiveParzenEstimator1D(0, high).fit(bad[:, d])
            draws = (l_1d, g_1d)[side].sample(rng, n)
            for col, a in zip(cols, (draws, l_1d.log_prob(draws),
                                     g_1d.log_prob(draws))):
                col.append(a)
        scalar += [np.stack(col, axis=1) for col in cols]
    scalar.append(rng.integers(0, 2**31, 4))

    for a, b in zip(batch, scalar):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == np.ascontiguousarray(b).tobytes()
    # Recorded with the per-dimension loop of scalar estimators.
    assert digest(*batch) == (
        "6c520f24eaa352e46a3c69e908bee7c40743eb702f1e92b634d11d1e6bbd2b81"
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


def test_gp_gradient_is_scipys_finite_difference():
    """``_nlml``'s stacked gradient drives L-BFGS-B exactly as scipy's own
    2-point finite difference does: same iterates, value and iteration
    count, from an interior start and from starts on the bounds (where
    scipy turns a step that leaves the box into a backward one)."""
    X, y = gp_data(30, 33)
    y = (y - y.mean()) / y.std()
    gp = GaussianProcessRegressor()
    spans = np.maximum(X.max(axis=0) - X.min(axis=0), 1e-3)
    lo = np.concatenate([[-4.0, np.log(1e-6)], np.log(1e-2 * spans)])
    hi = np.concatenate([[4.0, np.log(1.0)], np.log(1e2 * spans)])
    interior = np.concatenate([[0.0, np.log(1e-2)], np.log(0.5 * spans)])
    upper = interior.copy()
    upper[[0, 1, 3]] = hi[[0, 1, 3]]
    lower = interior.copy()
    lower[[1, 4]] = lo[[1, 4]]

    def value_only(theta):
        return gp._nlml_stack(gp._kmatrix(theta, X)[None], y)[0]

    options = dict(method="L-BFGS-B", bounds=list(zip(lo, hi)),
                   options={"maxiter": 50})
    for start in (interior, upper, lower):
        ours = minimize(gp._nlml, start, args=(X, y, hi), jac=True,
                        **options)
        scipys = minimize(value_only, start, **options)
        assert ours.x.tobytes() == scipys.x.tobytes()
        assert np.float64(ours.fun).tobytes() == (
            np.float64(scipys.fun).tobytes()
        )
        assert ours.nit == scipys.nit
        assert ours.nfev < scipys.nfev


def test_gp_kernel_stack_rows():
    """Each stacked covariance is the one ``_kmatrix`` builds at its
    point; a row that does not factorize scores 1e25 and leaves the
    other rows' values alone."""
    X, y = gp_data(40, 34)
    gp = GaussianProcessRegressor()
    theta = np.concatenate([[0.3, np.log(1e-3)], np.log(np.full(6, 4.0))])
    steps = np.full(theta.size, 1e-8)
    steps[2] = -1e-8
    K = gp._kmatrices(theta, steps, X)
    assert K[0].tobytes() == gp._kmatrix(theta, X).tobytes()
    for i, step in enumerate(steps):
        point = theta.copy()
        point[i] += step
        assert K[i + 1].tobytes() == gp._kmatrix(point, X).tobytes()
    values = gp._nlml_stack(K, y)
    assert np.all(values < 1e25)
    K[4] = -np.eye(X.shape[0])
    broken = gp._nlml_stack(K, y)
    assert broken[4] == 1e25
    assert np.delete(broken, 4).tobytes() == np.delete(values, 4).tobytes()
