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
parameters (everything in the paper's space is an integer range).  TPE
treats a flat space as independent dimensions, so one estimator object
holds a whole batch of them: ``d`` 1-D mixtures over the same
observation rows, fitted and scored with one set of array operations.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr  # vectorized standard normal CDF

__all__ = ["AdaptiveParzenEstimator1D"]

#: Rejected draws per pick before ``sample`` falls back to a uniform draw.
_MAX_TRIES = 100


class AdaptiveParzenEstimator1D:
    """Quantized adaptive Parzen densities over integers ``[low..high]``.

    With scalar bounds this is one 1-D estimator: ``fit`` takes ``(n,)``
    observations, ``prob``/``log_prob`` score ``(k,)`` candidates and
    ``sample`` returns ``(n,)`` draws.  With length-``d`` bound arrays it
    is ``d`` independent 1-D estimators fitted as one batch, one per
    column: ``fit`` takes ``(n, d)``, ``prob``/``log_prob`` score
    ``(k, d)`` candidates per dimension and ``sample`` returns ``(n, d)``.
    Every number a batch computes is, bit for bit, the one the scalar
    estimator of that column computes, and ``sample`` consumes the
    generator exactly as the ``d`` scalar estimators sampled in column
    order would.

    Parameters
    ----------
    low, high:
        Inclusive integer range of the variable (scalars), or of each
        dimension (length-``d`` arrays).
    prior_weight:
        Weight of the wide prior component, in units of one observation
        (HyperOpt default: 1.0).
    """

    def __init__(self, low, high, prior_weight: float = 1.0) -> None:
        lows, highs = np.atleast_1d(
            np.asarray(low, dtype=np.int64), np.asarray(high, dtype=np.int64)
        )
        if lows.ndim != 1 or highs.ndim != 1:
            raise ValueError("low and high must be scalars or 1-D arrays")
        span = highs - lows
        if (span < 0).any():
            raise ValueError(f"invalid range [{low}, {high}]")
        if prior_weight <= 0:
            raise ValueError("prior_weight must be > 0")
        self._scalar = np.ndim(low) == 0 and np.ndim(high) == 0
        self._lows = lows + np.zeros(span.shape)
        self._highs = self._lows + span
        self.low = int(low) if self._scalar else self._lows.astype(np.int64)
        self.high = int(high) if self._scalar else self._highs.astype(np.int64)
        self.prior_weight = float(prior_weight)
        self._dims = span.size
        self._rows = np.arange(self._dims)[:, None]
        # Outer edges of the quantization bins, [low - 0.5, high + 0.5].
        self._range = np.array([self._lows - 0.5, self._highs + 0.5])
        self._prior_mu = 0.5 * (self._lows + self._highs)
        self._prior_sigma = np.maximum(self._highs - self._lows, 1.0)
        self._fitted = False

    def _columns(self, values: np.ndarray) -> np.ndarray:
        """``values`` as a float ``(rows, d)`` matrix, one column per dim."""
        values = np.asarray(values, dtype=np.float64)
        if self._scalar:
            return values.reshape(-1, 1)
        if values.ndim != 2 or values.shape[1] != self._dims:
            raise ValueError(
                f"expected a (rows, {self._dims}) array, got shape "
                f"{values.shape}"
            )
        return values

    # -- fitting --------------------------------------------------------------
    def fit(self, values: np.ndarray) -> "AdaptiveParzenEstimator1D":
        """Fit the mixtures to observed integer values (may be empty)."""
        values = self._columns(values)
        if (values < self._lows).any() or (values > self._highs).any():
            raise ValueError(
                f"observations outside [{self.low}, {self.high}]"
            )
        d, m, rows = self._dims, values.shape[0] + 1, self._rows
        prior_sigma = self._prior_sigma[:, None]

        # One row per dimension: the prior component, then the values.
        mus = np.empty((d, m))
        mus[:, 0] = self._prior_mu
        mus[:, 1:] = values.T
        weights = np.ones(m)
        weights[0] = self.prior_weight

        # Adaptive bandwidths: distance to the nearest neighbour among the
        # sorted means (prior included), clipped as HyperOpt does.
        order = mus.argsort(axis=1, kind="stable")
        sorted_mus = mus[rows, order]
        if m == 1:
            sig = prior_sigma.copy()
        else:
            # Edge components use their single available gap (HyperOpt's
            # behaviour) rather than the full prior width.
            gaps = sorted_mus[:, 1:] - sorted_mus[:, :-1]
            sig = np.empty((d, m))
            sig[:, 0] = gaps[:, 0]
            sig[:, -1] = gaps[:, -1]
            np.maximum(gaps[:, :-1], gaps[:, 1:], out=sig[:, 1:-1])
        # Clipped to [prior / min(100, 1 + m), prior].
        np.maximum(sig, prior_sigma / min(100.0, 1.0 + m), out=sig)
        np.minimum(sig, prior_sigma, out=sig)
        sig[order == 0] = self._prior_sigma  # the prior component stays wide
        sigmas = np.empty((d, m))
        sigmas[rows, order] = sig

        # Tied observations make components with equal (mu, sigma), hence
        # equal CDFs.  Ties sit next to each other in ``order``, so each
        # run of them becomes one CDF column, evaluated once.  The columns
        # of all dimensions are numbered in one flat sequence; ``_column``
        # maps each (dimension, component) to its column.
        new = np.ones((d, m), dtype=bool)
        new[:, 1:] = (sorted_mus[:, 1:] != sorted_mus[:, :-1]) | (
            sig[:, 1:] != sig[:, :-1]
        )
        self._column = np.empty((d, m), dtype=np.intp)
        self._column[rows, order] = new.cumsum().reshape(d, m) - 1
        self._col_dim = new.nonzero()[0]
        self._col_mus, self._col_sigmas = sorted_mus[new], sig[new]
        # Truncation mass of each column on [low - 0.5, high + 0.5].
        z = (self._range[:, self._col_dim] - self._col_mus) / self._col_sigmas
        cdf = ndtr(z)
        self._col_trunc = np.maximum(cdf[1] - cdf[0], 1e-300)

        self._mus = mus[0] if self._scalar else mus
        self._sigmas = sigmas[0] if self._scalar else sigmas
        self._weights = weights / weights.sum()
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("estimator is not fitted; call fit() first")

    # -- evaluation -------------------------------------------------------------
    def prob(self, candidates: np.ndarray) -> np.ndarray:
        """P(v) for each candidate integer, per dimension (vectorized)."""
        self._require_fitted()
        v = self._columns(candidates)
        k = v.shape[0]
        # Per dimension, the CDF table has one row per distinct bin edge —
        # integer candidates share edges (v + 0.5 == (v + 1) - 0.5
        # exactly) — and one column per distinct component.  ``at`` maps
        # each of a dimension's 2k edges (upper edges first) to its row.
        rows = self._rows
        raw = np.concatenate([v + 0.5, v - 0.5]).T
        by_value = raw.argsort(axis=1)
        sorted_raw = raw[rows, by_value]
        new = np.ones(sorted_raw.shape, dtype=bool)
        new[:, 1:] = sorted_raw[:, 1:] != sorted_raw[:, :-1]
        rank = new.cumsum(axis=1) - 1
        at = np.empty_like(rank)
        at[rows, by_value] = rank
        edges = np.zeros((self._dims, int(rank.max(initial=0)) + 1))
        edges[rows, rank] = sorted_raw

        col_dim = self._col_dim
        z = (edges.T[:, col_dim] - self._col_mus) / self._col_sigmas
        cdf = ndtr(z)[at[col_dim].T, np.arange(col_dim.size)]
        col_mass = (cdf[:k] - cdf[k:]) / self._col_trunc
        # Each dimension's (k, m) component masses, as a matvec whose rows
        # have unit stride (``take`` allocates C order): BLAS then sums
        # every row in the order the scalar path's contiguous matvec does.
        mass = np.take(col_mass, self._column, axis=1)
        p = mass.transpose(1, 0, 2) @ self._weights
        inside = (v.T >= self._lows[:, None]) & (v.T <= self._highs[:, None])
        p = np.where(inside, np.maximum(p, 1e-300), 0.0)
        return p[0] if self._scalar else p.T

    def log_prob(self, candidates: np.ndarray) -> np.ndarray:
        """log P(v) for each candidate integer, per dimension."""
        return np.log(self.prob(candidates))

    # -- sampling ----------------------------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integers per dimension (truncated, rounded)."""
        self._require_fitted()
        if n < 1:
            raise ValueError("n must be >= 1")
        mus = self._mus.reshape(self._dims, -1)
        sigmas = self._sigmas.reshape(self._dims, -1)
        draws = np.empty((self._dims, n))
        edges = self._range.T.tolist()
        # ``rng.choice(size, size=n, p=weights)`` builds this CDF and
        # right-bisects ``random(n)`` in it; building it once draws the
        # same components from the same stream positions.
        cdf = self._weights.cumsum()
        cdf /= cdf[-1]
        for j in range(self._dims):  # the scalar estimators' call order
            comp = cdf.searchsorted(rng.random(n), side="right")
            draws[j] = _truncated_normals(
                rng, mus[j, comp].tolist(), sigmas[j, comp].tolist(),
                *edges[j],
            )
        out = np.clip(
            np.rint(draws), self._lows[:, None], self._highs[:, None]
        ).astype(np.int64)
        return out[0] if self._scalar else out.T


def _truncated_normals(rng, mus, sigmas, lo, hi):
    """One draw of ``N(mus[i], sigmas[i])`` restricted to ``[lo, hi]`` each.

    Rejection sampling, pick by pick: ``rng.normal(mu, sigma)`` until a
    draw lands inside (ranges are wide relative to bandwidths, so this
    terminates fast), or a uniform draw after ``_MAX_TRIES`` rejections.
    ``normal(mu, sigma)`` is ``mu + sigma * z`` of one standard normal
    ``z``, so the standard normals are drawn in chunks instead, each no
    longer than the number of picks still open: every pick needs at least
    one draw, so no chunk reads past where the pick-by-pick loop would
    stop.  The fallback rewinds the generator to the last drawn normal it
    needs before drawing its uniform.
    """
    out = []
    n = len(mus)
    i = tries = consumed = 0
    start = rng.bit_generator.state
    while i < n:
        for z in rng.standard_normal(n - i).tolist():
            consumed += 1
            draw = mus[i] + sigmas[i] * z
            if lo <= draw <= hi:
                out.append(draw)
                i += 1
                tries = 0
                continue
            tries += 1
            if tries == _MAX_TRIES:
                rng.bit_generator.state = start
                rng.standard_normal(consumed)
                out.append(rng.uniform(lo, hi))
                i += 1
                tries = consumed = 0
                start = rng.bit_generator.state
                break
    return out
