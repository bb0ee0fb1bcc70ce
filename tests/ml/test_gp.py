"""Unit tests for the Gaussian-process regressor."""

import numpy as np
import pytest

from repro.ml import RBF, GaussianProcessRegressor, Matern52


def make_1d(n=40, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, (n, 1))
    y = np.sin(X[:, 0]) + noise * rng.standard_normal(n)
    return X, y


class TestKernels:
    def test_correlation_at_zero_distance(self):
        z = np.zeros((1, 1))
        assert RBF.correlation(z)[0, 0] == pytest.approx(1.0)
        assert Matern52.correlation(z)[0, 0] == pytest.approx(1.0)

    def test_correlation_decays(self):
        d = np.array([[0.0, 1.0, 4.0, 16.0]])
        for k in (RBF, Matern52):
            vals = k.correlation(d)[0]
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] < 0.1


class TestValidation:
    def test_unknown_kernel(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor(kernel="ou")

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(np.ones((1, 1)), np.ones(1))

    def test_rejects_nonfinite(self):
        X = np.ones((3, 1))
        with pytest.raises(ValueError):
            GaussianProcessRegressor().fit(X, np.array([1.0, np.nan, 2.0]))

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.ones((2, 1)))

    def test_predict_wrong_width(self):
        X, y = make_1d()
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        with pytest.raises(ValueError):
            gp.predict(np.ones((2, 3)))


class TestFactorizationFailure:
    """A covariance that is not positive definite: the likelihood reports
    it as a huge loss, and a fit that cannot factorize its final model
    raises instead of keeping a broken one."""

    @staticmethod
    def indefinite(theta, X):
        return -np.eye(X.shape[0])

    def test_nlml_penalizes_indefinite_covariance(self, monkeypatch):
        X, y = make_1d(10)
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0))
        theta, hi = np.zeros(3), np.full(3, 5.0)
        value, grad = gp._nlml(theta, X, y, hi)
        assert np.isfinite(value) and np.all(np.isfinite(grad))
        monkeypatch.setattr(
            gp, "_kmatrices",
            lambda theta, steps, X: np.stack(
                [self.indefinite(theta, X)] * (theta.size + 1)
            ),
        )
        assert gp._nlml(theta, X, y, hi)[0] == 1e25

    def test_fit_raises_when_final_factorization_fails(self, monkeypatch):
        X, y = make_1d(10)
        gp = GaussianProcessRegressor(
            n_restarts=0, rng=np.random.default_rng(0)
        )
        monkeypatch.setattr(gp, "_kmatrix", self.indefinite)
        with pytest.raises(np.linalg.LinAlgError):
            gp.fit(X, y)
        assert not gp._fitted

    def test_refactorization_failure_raises(self, monkeypatch):
        X, y = make_1d(10)
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        monkeypatch.setattr(gp, "_kmatrix", self.indefinite)
        with pytest.raises(np.linalg.LinAlgError):
            gp.fit(X, y, optimize=False)


class TestPosterior:
    def test_interpolates_clean_data(self):
        X, y = make_1d(noise=0.0)
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        pred = gp.predict(X)
        assert np.max(np.abs(pred - y)) < 0.05

    def test_generalizes_sine(self):
        X, y = make_1d(n=60)
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        Xt = np.linspace(-2.5, 2.5, 50).reshape(-1, 1)
        pred = gp.predict(Xt)
        np.testing.assert_allclose(pred, np.sin(Xt[:, 0]), atol=0.25)

    def test_uncertainty_grows_away_from_data(self):
        X = np.array([[0.0], [0.5], [1.0]])
        y = np.array([0.0, 0.4, 0.9])
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        _, near = gp.predict(np.array([[0.5]]), return_std=True)
        _, far = gp.predict(np.array([[10.0]]), return_std=True)
        assert far[0] > 3 * near[0]

    def test_std_non_negative(self):
        X, y = make_1d()
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        _, std = gp.predict(np.linspace(-5, 5, 30).reshape(-1, 1),
                            return_std=True)
        assert np.all(std >= 0)

    def test_noise_estimate_reflects_data(self):
        X_clean, y_clean = make_1d(n=60, noise=0.0)
        X_noisy, y_noisy = make_1d(n=60, noise=0.4)
        gp_c = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(
            X_clean, y_clean
        )
        gp_n = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(
            X_noisy, y_noisy
        )
        assert (
            gp_n.hyperparameters["noise_variance"]
            > gp_c.hyperparameters["noise_variance"]
        )

    def test_warm_refit_without_optimization(self):
        X, y = make_1d(n=30)
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        theta_before = gp.hyperparameters
        X2, y2 = make_1d(n=40, seed=1)
        gp.fit(X2, y2, optimize=False)
        theta_after = gp.hyperparameters
        np.testing.assert_allclose(
            theta_before["lengthscales"], theta_after["lengthscales"]
        )
        # But the posterior reflects the new data.
        pred = gp.predict(X2)
        assert np.corrcoef(pred, y2)[0, 1] > 0.9

    def test_log_marginal_likelihood_finite(self):
        X, y = make_1d()
        gp = GaussianProcessRegressor(rng=np.random.default_rng(0)).fit(X, y)
        assert np.isfinite(gp.log_marginal_likelihood())

    def test_ard_lengthscales_detect_irrelevant_dimension(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, (80, 2))
        y = np.sin(2 * X[:, 0])  # dim 1 is irrelevant
        gp = GaussianProcessRegressor(rng=rng).fit(X, y)
        ls = gp.hyperparameters["lengthscales"]
        assert ls[1] > ls[0]
