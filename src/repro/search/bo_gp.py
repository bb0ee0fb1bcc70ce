"""Bayesian Optimization with Gaussian Processes — the paper's BO GP.

"Bayesian Optimization with Gaussian Processes is implemented using the
Scikit-optimize's gp_minimize function.  The acquisition function is
defined as the Expected Improvement.  Initialization uses 8% of the
samples, and the remaining 92% are used as prediction samples in the
search" (Section VI-B).  We mirror that procedure:

* ``init_fraction`` of the budget spent on uniform random initial points
  (8% by default, at least 2 — a GP needs two observations),
* a Matern-5/2 GP (``gp_minimize``'s default kernel) fit on
  ``log(runtime)`` with failures penalized,
* Expected Improvement maximized over a fresh random candidate pool each
  iteration (the discrete-space analogue of ``gp_minimize``'s acquisition
  optimization),
* kernel hyperparameters refit on a geometric schedule (every doubling of
  the observation count), with cheap fixed-hyperparameter Cholesky
  updates in between.

Two documented tractability deviations from ``gp_minimize`` (benchmarked
in the A2 ablation):

* ``max_train_points`` caps the GP training set; past the cap, the best
  half and the most recent half of the observations are kept.  Exact GPs
  are cubic in n, and the study runs thousands of BO GP experiments.
  Note this cap is also a plausible mechanism for the BO GP performance
  plateau the paper observes between sample sizes 100 and 200.
* the acquisition is optimized over a random candidate pool rather than
  with gradient ascent (the space is discrete).

Per Section V-C the SMBO methods could not use the constraint
specification, so candidates are drawn from the *unconstrained* space by
default; the infeasible ones fail to launch and teach the model to avoid
the region (at the cost of wasted samples — the paper's noted design
point, benchmarked in the A1 ablation).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from ..ml import GaussianProcessRegressor, log_runtime, penalize_failures
from .base import Objective, Stepper, Tuner

__all__ = ["BayesianGpTuner", "expected_improvement"]


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI for *minimization*: ``E[max(best - y - xi, 0)]`` under N(mean, std)."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.maximum(np.asarray(std, dtype=np.float64), 1e-12)
    z = (best - mean - xi) / std
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return (best - mean - xi) * ndtr(z) + std * phi


class BayesianGpTuner(Tuner):
    """gp_minimize-style sequential GP optimization.

    Parameters
    ----------
    init_fraction:
        Fraction of the budget used as random initialization (paper: 0.08).
    n_candidates:
        Random candidate pool scored by EI each iteration.
    max_train_points:
        GP training-set cap (see module docstring).
    xi:
        EI exploration offset.
    respect_constraints:
        Off by default — the paper's SMBO stack had no constraint support.
    """

    name = "bo_gp"
    label = "BO GP"

    def __init__(
        self,
        init_fraction: float = 0.08,
        n_candidates: int = 256,
        max_train_points: int = 128,
        xi: float = 0.01,
        respect_constraints: bool = False,
    ) -> None:
        if not 0.0 < init_fraction < 1.0:
            raise ValueError("init_fraction must be in (0, 1)")
        if n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if max_train_points < 2:
            raise ValueError("max_train_points must be >= 2")
        self.init_fraction = init_fraction
        self.n_candidates = n_candidates
        self.max_train_points = max_train_points
        self.xi = xi
        self.respect_constraints = respect_constraints

    def _training_subset(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple:
        """Cap the training set: best half + most recent half."""
        n = y.size
        cap = self.max_train_points
        if n <= cap:
            return X, y
        n_best = cap // 2
        n_recent = cap - n_best
        recent = np.arange(n - n_recent, n)
        by_quality = np.argsort(y, kind="stable")
        # Boolean-mask selection of the best non-recent points — same
        # candidates in the same quality order as filtering one index at
        # a time in Python, without the O(n) interpreter loop.
        best = by_quality[by_quality < n - n_recent][:n_best]
        keep = np.unique(np.concatenate([best.astype(int), recent]))
        return X[keep], y[keep]

    def steps(
        self, objective: Objective, rng: np.random.Generator
    ) -> Stepper:
        """The start-up design as one request, then one request per
        proposal until the budget is spent."""
        space = objective.space
        n_init = max(2, int(round(self.init_fraction * objective.budget)))
        n_init = min(n_init, objective.budget)

        design = space.sample(
            rng, n_init, feasible_only=self.respect_constraints
        )
        yield [space.config_to_flat(cfg) for cfg in design]
        # Feature rows are maintained incrementally (one append per
        # evaluation) so the loop stays O(budget) in Python-level work.
        feature_rows = list(space.to_features(design))

        gp = GaussianProcessRegressor(
            kernel="matern52", n_restarts=1, rng=rng
        )
        next_refit = objective.evaluations  # refit immediately, then 2x
        while objective.remaining > 0:
            X_all = np.asarray(feature_rows)
            y_all = log_runtime(
                penalize_failures(np.asarray(objective.runtimes))
            )
            X, y = self._training_subset(X_all, y_all)
            refit = objective.evaluations >= next_refit
            if refit:
                next_refit = max(next_refit * 2, objective.evaluations + 1)
            with objective.span("model_fit", n_obs=int(y.size)):
                gp.fit(X, y, optimize=refit)

            with objective.span("propose"):
                cand_flats, cand_features = space.sample_feature_matrix(
                    rng, self.n_candidates,
                    feasible_only=self.respect_constraints,
                )
                mean, std = gp.predict(cand_features, return_std=True)
                ei = expected_improvement(
                    mean, std, float(y_all.min()), self.xi
                )
                pick = int(np.argmax(ei))
            yield [int(cand_flats[pick])]
            feature_rows.append(cand_features[pick])
