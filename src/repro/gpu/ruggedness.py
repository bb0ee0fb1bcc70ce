"""Deterministic per-configuration landscape ruggedness.

Real GPU tuning landscapes are locally jagged: two adjacent configurations
can differ by tens of percent through effects no analytic model captures —
shared-memory bank conflicts, SASS instruction scheduling, memory
partition camping, cache set aliasing.  This ruggedness is *deterministic*
(re-running the same configuration reproduces it) yet statistically
unpredictable from the parameters, which is what separates it from
measurement noise and what bounds how precisely surrogate models can rank
near-optimal configurations.

We model it as a lognormal factor ``exp(sigma * z(config))`` where ``z``
is a standard-normal value derived from a counter-based hash of the
configuration (splitmix64), keyed by kernel and architecture so every
(benchmark, GPU) pair gets its own fixed landscape.  Counter-based hashing
keeps the whole thing vectorized and stateless — any subset of the 2M
configurations can be evaluated in any order with identical results, which
exhaustive optimum scans rely on.  The hash folds in one parameter column
at a time, so the columns may be broadcastable grid axes rather than one
``(n, d)`` matrix: a full-space block then hashes its fixed leading
parameters once instead of once per row.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple, Union

import numpy as np
from scipy.special import ndtri

__all__ = ["ruggedness_factor", "standard_normal_hash"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: a high-quality 64-bit mixing function."""
    x = (x + _GOLDEN).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


_MASK64 = (1 << 64) - 1


@lru_cache(maxsize=None)
def _seed_from_key(key: str) -> np.uint64:
    """FNV-1a over the key's UTF-8 bytes, in 64-bit wrap-around arithmetic.

    Python ints masked to 64 bits give the same bits as ``np.uint64``
    arithmetic without its overflow warnings; the seed is memoized
    because every simulator call of a landscape asks for it.
    """
    h = 1469598103934665603  # FNV-1a offset basis
    for byte in key.encode("utf-8"):
        h = ((h ^ byte) * 1099511628211) & _MASK64
    return np.uint64(h)


#: An ``(n, d)`` configuration matrix, or a tuple of ``d`` columns that
#: broadcast against each other (one grid axis per column).
Configs = Union[np.ndarray, Tuple[np.ndarray, ...]]


def _columns(configs: Configs) -> Tuple[list, tuple]:
    """The int64 parameter columns of ``configs`` and its result shape."""
    if isinstance(configs, tuple):
        columns = [np.asarray(column, dtype=np.int64) for column in configs]
        return columns, np.broadcast_shapes(*(c.shape for c in columns))
    configs = np.asarray(configs, dtype=np.int64)
    if configs.ndim != 2:
        raise ValueError(f"configs must be 2-D, got shape {configs.shape}")
    return [configs[:, c] for c in range(configs.shape[1])], configs.shape[:1]


def standard_normal_hash(configs: Configs, key: str) -> np.ndarray:
    """A deterministic standard-normal value per configuration.

    Parameters
    ----------
    configs:
        ``(n, d)`` integer matrix, or a tuple of ``d`` integer columns
        that broadcast against each other (one grid axis per column);
        each configuration is hashed column by column.
    key:
        Landscape identity (e.g. ``"harris/titan_v"``); distinct keys give
        independent landscapes.

    The result has the columns' broadcast shape; every entry depends only
    on its own configuration, so a grid gives the same bits as the
    matrix of its rows.
    """
    columns, _ = _columns(configs)
    with np.errstate(over="ignore"):
        h = np.full(1, _seed_from_key(key), dtype=np.uint64)
        for column in columns:
            h = _splitmix64(h ^ column.astype(np.uint64))
    # Map to (0, 1) strictly, then to a standard normal.
    u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return ndtri(u)


def ruggedness_factor(
    configs: Configs,
    key: str,
    sigma_slow: float,
    sigma_fast: float = 0.0,
) -> np.ndarray:
    """Asymmetric lognormal ruggedness multiplier per configuration.

    ``exp(sigma_slow * max(z, 0) + sigma_fast * min(z, 0))`` — slowdowns
    (conflicts) have spread ``sigma_slow``; the residual speedup tail has
    the (much smaller) ``sigma_fast``.  ``z`` is the configuration's
    hashed standard normal.  ``configs`` is a matrix or a column tuple,
    as in :func:`standard_normal_hash`.
    """
    if sigma_slow < 0 or sigma_fast < 0:
        raise ValueError("sigmas must be >= 0")
    if sigma_slow == 0.0 and sigma_fast == 0.0:
        return np.ones(_columns(configs)[1], dtype=np.float64)
    z = standard_normal_hash(configs, key)
    return np.exp(
        sigma_slow * np.maximum(z, 0.0) + sigma_fast * np.minimum(z, 0.0)
    )
