"""Adaptive Parzen estimators — the density substrate of TPE.

The paper's BO TPE tuner uses the HyperOpt library (Section VI-B), whose
core is Bergstra et al.'s *adaptive Parzen estimator* (NeurIPS 2011): a
1-D mixture of Gaussians, one component per observation, with

* per-component bandwidths set to the distance to the neighbouring
  observations (wide where data is sparse, narrow where dense), clipped to
  a fraction of the prior range,
* a wide *prior* component over the whole range, so unexplored regions
  keep non-zero probability, and
* quantization for integer parameters: the probability of integer ``v`` is
  the mixture CDF mass on ``[v - 0.5, v + 0.5]``, truncated to the range.

This reimplements that estimator faithfully for integer-valued tuning
parameters (everything in the paper's space is an integer range).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.special import ndtr  # vectorized standard normal CDF

__all__ = ["AdaptiveParzenEstimator1D"]


class AdaptiveParzenEstimator1D:
    """Quantized adaptive Parzen density over integers ``[low..high]``.

    Parameters
    ----------
    low, high:
        Inclusive integer range of the variable.
    prior_weight:
        Weight of the wide prior component, in units of one observation
        (HyperOpt default: 1.0).
    """

    def __init__(self, low: int, high: int, prior_weight: float = 1.0) -> None:
        if high < low:
            raise ValueError(f"invalid range [{low}, {high}]")
        if prior_weight <= 0:
            raise ValueError("prior_weight must be > 0")
        self.low = int(low)
        self.high = int(high)
        self.prior_weight = float(prior_weight)
        self._fitted = False

    # -- fitting --------------------------------------------------------------
    def fit(self, values: np.ndarray) -> "AdaptiveParzenEstimator1D":
        """Fit the mixture to observed integer values (may be empty)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size and (
            values.min() < self.low or values.max() > self.high
        ):
            raise ValueError(
                f"observations outside [{self.low}, {self.high}]"
            )
        prior_mu = 0.5 * (self.low + self.high)
        prior_sigma = max(float(self.high - self.low), 1.0)

        mus = np.concatenate([[prior_mu], values])
        weights = np.concatenate(
            [[self.prior_weight], np.ones(values.size)]
        )

        # Adaptive bandwidths: distance to the nearest neighbour among the
        # sorted means (prior included), clipped as HyperOpt does.
        order = np.argsort(mus, kind="stable")
        sorted_mus = mus[order]
        sigmas_sorted = np.empty_like(sorted_mus)
        if sorted_mus.size == 1:
            sigmas_sorted[:] = prior_sigma
        else:
            gaps = sorted_mus[1:] - sorted_mus[:-1]
            left = np.empty_like(sorted_mus)
            right = np.empty_like(sorted_mus)
            left[1:] = gaps
            right[:-1] = gaps
            # Edge components use their single available gap (HyperOpt's
            # behaviour) rather than the full prior width.
            left[0] = right[0]
            right[-1] = left[-1]
            sigmas_sorted = np.maximum(left, right)
        sig_max = prior_sigma
        sig_min = prior_sigma / min(100.0, 1.0 + sorted_mus.size)
        sigmas_sorted = np.clip(sigmas_sorted, sig_min, sig_max)
        sigmas = np.empty_like(sigmas_sorted)
        sigmas[order] = sigmas_sorted
        sigmas[0] = prior_sigma  # the prior component stays wide

        self._mus = mus
        self._sigmas = sigmas
        self._weights = weights / weights.sum()
        # Tied observations make components with equal (mu, sigma), hence
        # equal CDFs.  Ties sit next to each other in ``order``, so each
        # run of them becomes one CDF column, evaluated once and mapped
        # back to its components through ``_column``.
        run_mus, run_sigmas = mus[order], sigmas[order]
        new = np.ones(mus.size, dtype=bool)
        new[1:] = (run_mus[1:] != run_mus[:-1]) | (
            run_sigmas[1:] != run_sigmas[:-1]
        )
        self._column = np.empty(mus.size, dtype=np.intp)
        self._column[order] = np.cumsum(new) - 1
        self._col_mus, self._col_sigmas = run_mus[new], run_sigmas[new]
        # Truncation mass of each component on [low-0.5, high+0.5].
        lo_z = (self.low - 0.5 - self._col_mus) / self._col_sigmas
        hi_z = (self.high + 0.5 - self._col_mus) / self._col_sigmas
        self._trunc_mass = np.maximum(ndtr(hi_z) - ndtr(lo_z), 1e-300)[
            self._column
        ]
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("estimator is not fitted; call fit() first")

    # -- evaluation -------------------------------------------------------------
    def prob(self, candidates: np.ndarray) -> np.ndarray:
        """P(v) for each candidate integer (vectorized)."""
        self._require_fitted()
        v = np.asarray(candidates, dtype=np.float64).ravel()
        # (n_candidates, n_components) CDF-difference masses.  The CDF
        # table has one row per distinct bin edge — integer candidates
        # share edges (v + 0.5 == (v + 1) - 0.5 exactly) — and one column
        # per distinct component.
        edges, at = np.unique(
            np.concatenate([v + 0.5, v - 0.5]), return_inverse=True
        )
        z = (edges[:, None] - self._col_mus[None, :]) / self._col_sigmas
        cdf = ndtr(z)[:, self._column]
        at = at.ravel()
        mass = (cdf[at[: v.size]] - cdf[at[v.size:]]) / self._trunc_mass[None, :]
        p = mass @ self._weights
        inside = (v >= self.low) & (v <= self.high)
        return np.where(inside, np.maximum(p, 1e-300), 0.0)

    def log_prob(self, candidates: np.ndarray) -> np.ndarray:
        """log P(v) for each candidate integer."""
        return np.log(self.prob(candidates))

    # -- sampling ----------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integers from the fitted mixture (truncated, rounded)."""
        self._require_fitted()
        if n < 1:
            raise ValueError("n must be >= 1")
        comp = rng.choice(self._mus.size, size=n, p=self._weights)
        mus, sigmas = self._mus.tolist(), self._sigmas.tolist()
        low, high = self.low, self.high
        lo_edge, hi_edge = low - 0.5, high + 0.5
        normal = rng.normal
        out = []
        for c in comp.tolist():
            # Rejection-sample the truncated normal (ranges are wide
            # relative to bandwidths, so this terminates fast).
            mu, sigma = mus[c], sigmas[c]
            for _ in range(100):
                draw = normal(mu, sigma)
                if lo_edge <= draw <= hi_edge:
                    break
            else:
                draw = rng.uniform(lo_edge, hi_edge)
            out.append(min(max(round(draw), low), high))
        return np.array(out, dtype=np.int64)
