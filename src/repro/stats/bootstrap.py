"""Bootstrap confidence intervals for aggregate statistics.

Fig. 3 of the paper plots the mean percentage-of-optimum across all
benchmark/architecture cells with a confidence interval.  Because the
underlying populations are non-Gaussian (Section V-A), we use percentile
bootstrap intervals rather than normal-theory ones.

Resampling is **deterministic by default**: with ``rng=None`` a generator
seeded with :data:`DEFAULT_BOOTSTRAP_SEED` is used, so every interval —
and every figure drawn from one — replays identically across runs.  Pass
an explicit generator (or an int seed) to thread your own stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "BootstrapInterval",
    "bootstrap_ci",
    "DEFAULT_BOOTSTRAP_SEED",
]

#: Seed of the generator built when ``rng`` is ``None``.  A fixed default
#: keeps every resampling call reproducible without callers having to
#: thread a stream through code that only wants "a CI".
DEFAULT_BOOTSTRAP_SEED = 0x1D5EED

RngLike = Union[None, int, np.integer, np.random.Generator]


@dataclass(frozen=True)
class BootstrapInterval:
    """A point estimate with a percentile-bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.high - self.low)


def _resolve_rng(rng: RngLike) -> np.random.Generator:
    if rng is None:
        return np.random.default_rng(DEFAULT_BOOTSTRAP_SEED)
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


def _validate(values: np.ndarray, confidence: float, n_resamples: int) -> None:
    if values.size == 0:
        raise ValueError("values must be non-empty")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")


def _resample_statistics(
    values: np.ndarray,
    statistic: Callable[[np.ndarray], float],
    n_resamples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The statistic over ``n_resamples`` bootstrap resamples.

    One ``(n_resamples, n)`` index draw, with ``statistic`` applied along
    the resample axis when it supports an ``axis`` keyword (NumPy
    reductions do), falling back to a loop for arbitrary callables.
    """
    idx = rng.integers(0, values.size, size=(n_resamples, values.size))
    resamples = values[idx]
    try:
        return np.asarray(statistic(resamples, axis=1), dtype=np.float64)
    except TypeError:
        return np.array(
            [statistic(row) for row in resamples], dtype=np.float64
        )


def bootstrap_ci(
    values: np.ndarray,
    statistic: Callable[[np.ndarray], float] = np.mean,
    confidence: float = 0.95,
    n_resamples: int = 2000,
    rng: RngLike = None,
) -> BootstrapInterval:
    """Percentile bootstrap CI of ``statistic`` over ``values``.

    ``rng`` may be a :class:`numpy.random.Generator`, an int seed, or
    ``None`` for the deterministic default stream
    (:data:`DEFAULT_BOOTSTRAP_SEED`).
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    _validate(values, confidence, n_resamples)
    rng = _resolve_rng(rng)

    estimate = float(statistic(values))
    stats = _resample_statistics(values, statistic, n_resamples, rng)
    alpha = 1.0 - confidence
    low, high = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapInterval(
        estimate=estimate,
        low=float(low),
        high=float(high),
        confidence=confidence,
    )
