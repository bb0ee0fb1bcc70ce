"""Gaussian-process regression, from scratch.

The substrate behind the paper's BO GP tuner (scikit-optimize's
``gp_minimize`` in the original, Section VI-B).  A standard exact GP:

* Matern-5/2 (the ``gp_minimize`` default) or RBF covariance with ARD
  lengthscales, signal variance and an optimized noise term,
* hyperparameters fit by maximizing the log marginal likelihood with
  L-BFGS-B restarts,
* Cholesky-based posterior mean/std prediction.

The likelihood is evaluated thousands of times per study.  L-BFGS-B
needs its gradient, and the gradient is the forward difference scipy
would take itself without a ``jac``: the same steps, bit for bit, but
the base point and its neighbours are built as one stack of covariance
matrices, in one call, with the signal and noise steps reusing the base
point's correlation matrix.  The Cholesky factorizations and solves
call LAPACK's ``dpotrf``/``dpotrs`` directly — the routines
``scipy.linalg.cho_factor``/``cho_solve`` wrap, minus the wrappers'
per-call checks.

Runtimes are heavy-tailed, so callers should model ``log(runtime)`` (the
tuners in :mod:`repro.search.bo_gp` do); ``normalize_y`` handles the
remaining location/scale.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize

__all__ = ["Matern52", "RBF", "GaussianProcessRegressor"]

#: L-BFGS-B's default finite-difference step (scipy's ``eps``).
_FD_STEP = 1e-8


def _sq_dists(X1: np.ndarray, X2: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    """Pairwise squared distances after per-dimension scaling."""
    A = X1 / lengthscales
    B = X2 / lengthscales
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    # aa + bb - 2.0 * (A @ B.T), evaluated in place.
    cross = A @ B.T
    cross *= 2.0
    sq = aa + bb
    sq -= cross
    return np.maximum(sq, 0.0, out=sq)


class RBF:
    """Squared-exponential correlation: ``exp(-r^2 / 2)``."""

    name = "rbf"

    @staticmethod
    def correlation(sq_dists: np.ndarray) -> np.ndarray:
        out = -0.5 * sq_dists
        return np.exp(out, out=out)


class Matern52:
    """Matern nu=5/2 correlation (``gp_minimize``'s default)."""

    name = "matern52"

    @staticmethod
    def correlation(sq_dists: np.ndarray) -> np.ndarray:
        # (1.0 + r + r * r / 3.0) * exp(-r), evaluated in place.
        r = 5.0 * sq_dists
        np.sqrt(r, out=r)
        decay = np.negative(r)
        np.exp(decay, out=decay)
        quad = r * r
        quad /= 3.0
        r += 1.0
        r += quad
        r *= decay
        return r


_KERNELS = {"rbf": RBF, "matern52": Matern52}


class GaussianProcessRegressor:
    """Exact GP regression with marginal-likelihood hyperparameter fitting.

    Parameters
    ----------
    kernel:
        ``"matern52"`` (default, matching ``gp_minimize``) or ``"rbf"``.
    alpha:
        Jitter added to the diagonal for numerical stability (on top of
        the *learned* noise variance).
    normalize_y:
        Standardize targets before fitting (restored at prediction).
    n_restarts:
        Extra random restarts of the hyperparameter optimization.
    rng:
        Generator for restart initialization.
    """

    def __init__(
        self,
        kernel: str = "matern52",
        alpha: float = 1e-8,
        normalize_y: bool = True,
        n_restarts: int = 2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        try:
            self._corr = _KERNELS[kernel]
        except KeyError:
            raise ValueError(
                f"unknown kernel {kernel!r}; available: {sorted(_KERNELS)}"
            ) from None
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.kernel_name = kernel
        self.alpha = alpha
        self.normalize_y = normalize_y
        self.n_restarts = n_restarts
        self.rng = rng if rng is not None else np.random.default_rng()
        self._fitted = False

    # -- internals ------------------------------------------------------------
    def _unpack(self, theta: np.ndarray) -> Tuple[float, np.ndarray, float]:
        """theta = [log signal_var, log noise_var, log lengthscales...]."""
        signal = np.exp(theta[0])
        noise = np.exp(theta[1])
        ls = np.exp(theta[2:])
        return signal, ls, noise

    def _kmatrix(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        signal, ls, noise = self._unpack(theta)
        K = signal * self._corr.correlation(_sq_dists(X, X, ls))
        K.flat[:: K.shape[0] + 1] += noise + self.alpha
        return K

    def _kmatrices(
        self, theta: np.ndarray, steps: np.ndarray, X: np.ndarray
    ) -> np.ndarray:
        """Covariances at ``theta`` and at ``theta + steps[i] * e_i``.

        Returns the ``(len(theta) + 1, n, n)`` stack ``[K(theta),
        K(theta + steps[0] e_0), ...]``, each matrix bitwise equal to
        :meth:`_kmatrix` at its point.  The signal and noise steps share
        the base point's correlation matrix.
        """
        n = X.shape[0]
        stepped = theta + np.diag(steps)  # row i: theta + steps[i] e_i
        signal = np.exp([theta[0], stepped[0, 0]])
        noise = np.exp([theta[1], stepped[1, 1]])
        ls = np.exp(np.concatenate([theta[None, 2:], stepped[2:, 2:]]))
        K = np.empty((theta.size + 1, n, n))
        base = self._corr.correlation(_sq_dists(X, X, ls[0]))
        np.multiply(signal[0], base, out=K[0])
        np.multiply(signal[1], base, out=K[1])
        K[2] = K[0]
        # One cache-sized matrix at a time: a whole-stack pass is slower
        # once the stack outgrows the cache (n ~ 64 and up).
        for Ki, ls_i in zip(K[3:], ls[1:]):
            corr = self._corr.correlation(_sq_dists(X, X, ls_i))
            np.multiply(signal[0], corr, out=Ki)
        diag = np.arange(n)
        nugget = np.full(theta.size + 1, noise[0])
        nugget[2] = noise[1]
        K[:, diag, diag] += nugget[:, None] + self.alpha
        return K

    @staticmethod
    def _nlml_stack(K: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Negative log marginal likelihood of ``y`` under each covariance.

        One ``dpotrf``/``dpotrs`` per matrix; a matrix that is not
        positive definite, or whose value is not finite, scores 1e25.
        """
        constant = 0.5 * y.size * np.log(2 * np.pi)
        out = np.full(K.shape[0], 1e25)
        for i, Ki in enumerate(K):
            chol, info = dpotrf(Ki, lower=1, clean=0)
            if info > 0:  # not positive definite
                continue
            alpha_vec = dpotrs(chol, y, lower=1)[0]
            logdet = 2.0 * np.log(np.diag(chol)).sum()
            val = 0.5 * float(y @ alpha_vec) + 0.5 * logdet + constant
            if np.isfinite(val):
                out[i] = val
        return out

    def _nlml(
        self, theta: np.ndarray, X: np.ndarray, y: np.ndarray, hi: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """NLML at ``theta`` and its forward-difference gradient.

        The gradient is, bit for bit, the one L-BFGS-B computes itself
        when given no ``jac`` (scipy's 2-point ``approx_derivative`` with
        absolute step ``eps``): one step of ``_FD_STEP`` per coordinate,
        flipped to a backward step where the forward one would pass the
        upper bound ``hi``, and the difference quotient taken over the
        step as represented, ``(theta + h) - theta``.  Every box here is
        far wider than a step, so scipy's shrunken-step branch never
        applies.
        The base point and its neighbours are evaluated as one stack.
        """
        h = np.full(theta.size, _FD_STEP)
        h[theta + h > hi] *= -1
        values = self._nlml_stack(self._kmatrices(theta, h, X), y)
        return values[0], (values[1:] - values[0]) / ((theta + h) - theta)

    # -- API ----------------------------------------------------------------
    def fit(
        self, X: np.ndarray, y: np.ndarray, optimize: bool = True
    ) -> "GaussianProcessRegressor":
        """Fit the GP.

        With ``optimize=False`` and a previous fit available, the stored
        hyperparameters are reused and only the Cholesky factorization is
        redone — the cheap incremental path a sequential optimizer uses
        between periodic hyperparameter refits.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y shape {y.shape} does not match X {X.shape}")
        if X.shape[0] < 2:
            raise ValueError("GP needs at least 2 observations")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("GP inputs must be finite; penalize failed "
                             "measurements before fitting")

        self._y_mean = float(y.mean()) if self.normalize_y else 0.0
        self._y_std = float(y.std()) if self.normalize_y else 1.0
        if self._y_std == 0.0:
            self._y_std = 1.0
        yn = (y - self._y_mean) / self._y_std

        d = X.shape[1]
        spans = np.maximum(X.max(axis=0) - X.min(axis=0), 1e-3)
        # Initial guess: unit signal, small noise, lengthscale = half-span.
        theta0 = np.concatenate(
            [[0.0, np.log(1e-2)], np.log(0.5 * spans)]
        )
        lo = np.concatenate([[-4.0, np.log(1e-6)], np.log(1e-2 * spans)])
        hi = np.concatenate([[4.0, np.log(1.0)], np.log(1e2 * spans)])
        bounds = list(zip(lo, hi))

        if not optimize and self._fitted:
            best_theta = self._theta
        else:
            best_val = self._nlml_stack(self._kmatrix(theta0, X)[None], yn)[0]
            best_theta = theta0
            if self._fitted:
                # Warm refit: continue from the previous optimum only —
                # the landscape changed a little, not wholesale.
                starts = [np.clip(self._theta, lo, hi)]
            else:
                starts = [theta0] + [
                    self.rng.uniform(lo, hi) for _ in range(self.n_restarts)
                ]
            for start in starts:
                res = minimize(
                    self._nlml,
                    start,
                    args=(X, yn, hi),
                    method="L-BFGS-B",
                    jac=True,
                    bounds=bounds,
                    options={"maxiter": 50},
                )
                if res.fun < best_val and np.all(np.isfinite(res.x)):
                    best_theta, best_val = res.x, res.fun

        chol, info = dpotrf(self._kmatrix(best_theta, X), lower=1, clean=0)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the GP covariance is not "
                f"positive definite"
            )
        self._theta = best_theta
        self._X = X
        self._chol = chol
        self._alpha_vec = dpotrs(chol, yn, lower=1)[0]
        self._fitted = True
        return self

    @property
    def hyperparameters(self) -> dict:
        """Fitted kernel hyperparameters (natural scale)."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted; call fit() first")
        signal, ls, noise = self._unpack(self._theta)
        return {
            "signal_variance": float(signal),
            "noise_variance": float(noise),
            "lengthscales": ls.copy(),
        }

    def predict(
        self, X: np.ndarray, return_std: bool = False
    ):
        """Posterior mean (and optionally standard deviation)."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"X must be (n, {self._X.shape[1]}), got shape {X.shape}"
            )
        signal, ls, noise = self._unpack(self._theta)
        Ks = signal * self._corr.correlation(_sq_dists(X, self._X, ls))
        mean_n = Ks @ self._alpha_vec
        mean = mean_n * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = dpotrs(self._chol, Ks.T, lower=1)[0]
        var_n = signal - np.einsum("ij,ji->i", Ks, v)
        var_n = np.maximum(var_n, 1e-12)
        std = np.sqrt(var_n) * self._y_std
        return mean, std

    def log_marginal_likelihood(self) -> float:
        """LML of the fitted model (normalized-target scale)."""
        if not self._fitted:
            raise RuntimeError("GP is not fitted; call fit() first")
        logdet = 2.0 * np.log(np.diag(self._chol)).sum()
        n = self._X.shape[0]
        # Reconstruct the normalized targets from K @ alpha.
        K = self._kmatrix(self._theta, self._X)
        yn = K @ self._alpha_vec
        return -(
            0.5 * float(yn @ self._alpha_vec)
            + 0.5 * logdet
            + 0.5 * n * np.log(2 * np.pi)
        )
