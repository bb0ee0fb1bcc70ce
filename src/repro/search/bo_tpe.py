"""Bayesian Optimization with Tree-Parzen Estimators — the paper's BO TPE.

"For the TPE variant of BO we used the Hyperopt library by Bergstra et
al." (Section VI-B).  This reimplements HyperOpt's TPE suggestion loop
(Bergstra et al., NeurIPS 2011) over the integer search space:

* ``n_startup`` uniform random trials first (HyperOpt default: 20),
* observations split into *good* and *bad* at the gamma-quantile of the
  observed losses, with HyperOpt's ``n_good = ceil(gamma * sqrt(n))``
  capping (at most 25),
* per-dimension adaptive Parzen estimators ``l(x)`` (good) and ``g(x)``
  (bad) — :class:`repro.ml.kde.AdaptiveParzenEstimator1D`, each side one
  batch of 1-D estimators fitted, sampled and scored together,
* ``n_ei_candidates`` draws from ``l``, scored by ``log l(x) - log g(x)``
  summed over dimensions (maximizing this ratio maximizes EI under the
  TPE model), best candidate measured.

The paper notes the one HyperOpt limitation it cared about: "the inability
to specify the balance of random samples to model-driven samples" — i.e.
the startup count is HyperOpt's fixed default rather than the 8% used for
BO GP.  We keep that behaviour (``n_startup = 20``).

Like BO GP, TPE samples the unconstrained space (Section V-C).
"""

from __future__ import annotations

import numpy as np

from ..ml import AdaptiveParzenEstimator1D, log_runtime, penalize_failures
from ..searchspace import SearchSpace
from .base import Objective, Stepper, Tuner

__all__ = ["BayesianTpeTuner"]


class BayesianTpeTuner(Tuner):
    """HyperOpt-style TPE over integer parameter spaces.

    Parameters
    ----------
    n_startup:
        Random trials before the model kicks in (HyperOpt default 20).
    gamma:
        Quantile splitting good from bad observations (HyperOpt 0.25).
    n_ei_candidates:
        Candidates drawn from ``l(x)`` per iteration (HyperOpt 24).
    prior_weight:
        Weight of the wide prior component in each Parzen estimator.
    respect_constraints:
        Off by default — the paper's SMBO stack had no constraint support.
    """

    name = "bo_tpe"
    label = "BO TPE"

    def __init__(
        self,
        n_startup: int = 20,
        gamma: float = 0.25,
        n_ei_candidates: int = 24,
        prior_weight: float = 1.0,
        respect_constraints: bool = False,
    ) -> None:
        if n_startup < 2:
            raise ValueError("n_startup must be >= 2")
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if n_ei_candidates < 1:
            raise ValueError("n_ei_candidates must be >= 1")
        self.n_startup = n_startup
        self.gamma = gamma
        self.n_ei_candidates = n_ei_candidates
        self.prior_weight = prior_weight
        self.respect_constraints = respect_constraints

    def _n_good(self, n_obs: int) -> int:
        """HyperOpt's split size: ``min(ceil(gamma * sqrt(n)), 25)``."""
        return max(1, min(int(np.ceil(self.gamma * np.sqrt(n_obs))), 25))

    def _suggest(
        self,
        space: SearchSpace,
        observations: np.ndarray,
        losses: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One TPE suggestion from the (index-matrix, loss) history: the
        chosen index row."""
        n_good = self._n_good(losses.size)
        order = np.argsort(losses, kind="stable")
        good = observations[order[:n_good]]
        bad = observations[order[n_good:]]

        # Candidates are drawn from l(x) and scored by l/g per dimension
        # (HyperOpt treats flat search spaces as independent dimensions);
        # one batched estimator per side holds all the dimensions.
        highs = np.array([p.cardinality - 1 for p in space.parameters])
        l_est = AdaptiveParzenEstimator1D(
            0, highs, prior_weight=self.prior_weight
        ).fit(good)
        g_est = AdaptiveParzenEstimator1D(
            0, highs, prior_weight=self.prior_weight
        ).fit(bad)
        candidate_matrix = l_est.sample(rng, self.n_ei_candidates)
        ratio = l_est.log_prob(candidate_matrix) - g_est.log_prob(
            candidate_matrix
        )
        # Summed dimension by dimension, left to right (cumsum adds in
        # sequence, a pairwise ``sum`` would not).
        best = int(np.argmax(np.cumsum(ratio, axis=1)[:, -1]))
        # A copy: the history keeps the row, not the whole candidate set.
        return candidate_matrix[best].copy()

    def steps(
        self, objective: Objective, rng: np.random.Generator
    ) -> Stepper:
        """The start-up trials as one request, then one request per
        suggestion until the budget is spent."""
        space = objective.space
        n_startup = min(self.n_startup, objective.budget)
        startup = space.sample_indices(
            rng, n_startup, feasible_only=self.respect_constraints
        )
        yield [space.indices_to_flat(row) for row in startup]
        # The observation index matrix grows by one row per evaluation;
        # maintaining the rows incrementally keeps each iteration O(n)
        # instead of re-encoding the entire history (O(n^2) per run).
        index_rows = list(startup)

        while objective.remaining > 0:
            # The Parzen-estimator build and candidate scoring are one
            # fused step in TPE; the span is the model-fit analogue.
            with objective.span("model_fit"):
                obs = np.stack(index_rows)
                losses = log_runtime(
                    penalize_failures(np.asarray(objective.runtimes))
                )
                suggestion = self._suggest(space, obs, losses, rng)
            yield [space.indices_to_flat(suggestion)]
            index_rows.append(suggestion)
