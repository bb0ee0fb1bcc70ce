"""Exhaustive true-optimum scans.

The paper's headline metric (Fig. 2/3) is the percentage of the *study's
optimum* each algorithm reaches.  On real hardware the study optimum is
the best configuration any run ever found; with the deterministic
simulator we can do better and compute the *true* noise-free optimum of
every (kernel, architecture) landscape by scanning all 2,097,152
configurations.  The scan walks the space's grid blocks
(:meth:`~repro.searchspace.SearchSpace.grid_blocks`, at most
:data:`~repro.gpu.landscape.BLOCK_ROWS` rows each, small enough that a
block's temporaries stay in cache) and evaluates the model on each
block's broadcast value columns, without decoding flats into rows; the
feasibility mask is built the same way.  Because the model is
elementwise, the runtimes are bit-identical to 1-row simulator calls.

With a precomputed :class:`~repro.gpu.landscape.LandscapeTable` the scan
collapses to an argmin over the table (plus the feasibility mask), so one
full-space simulator pass serves both the landscape cache and the optimum.

Results are memoized per (profile, architecture, space) since every
experiment cell of a study shares them; the memo key is the same stable
landscape fingerprint the on-disk cache uses — hashed from field values,
never live object identities — so memoization works across pickling
round-trips and is consistent between processes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..gpu.arch import GpuArchitecture
from ..gpu.landscape import (
    BLOCK_ROWS,
    LandscapeTable,
    _space_descriptor,
    check_block_rows,
    landscape_fingerprint,
)
from ..gpu.simulator import simulate_columns
from ..gpu.workload import WorkloadProfile
from ..searchspace import SearchSpace

__all__ = ["OptimumResult", "find_true_optimum", "clear_optimum_cache"]

_CACHE: Dict[tuple, "OptimumResult"] = {}

#: Full-space feasibility masks memoized per space *value* (parameters +
#: constraints), shared by every (profile, arch) scan over that space —
#: the paper's nine landscapes share one space, so eight scans reuse it.
_MASK_CACHE: Dict[str, np.ndarray] = {}


@dataclass(frozen=True)
class OptimumResult:
    """The noise-free best configuration of one landscape."""

    #: Best configuration as a dict.
    config: dict
    #: Its flat index in the scanned space.
    flat_index: int
    #: Noise-free runtime, ms.
    runtime_ms: float
    #: Configurations actually considered: the whole space, minus any
    #: rows excluded by the feasibility filter when ``feasible_only``.
    scanned: int
    #: Whether infeasible configurations were excluded from the scan.
    feasible_only: bool


def _cache_key(
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    space: SearchSpace,
    feasible_only: bool,
) -> tuple:
    # The landscape fingerprint hashes profile/arch fields, the space's
    # parameters + constraints, and the simulator version — replacing the
    # old key's live ``profile`` object, whose identity-based hash broke
    # memoization for equal profiles arriving via unpickling.
    return (landscape_fingerprint(profile, arch, space), feasible_only)


def find_true_optimum(
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    space: SearchSpace,
    feasible_only: bool = True,
    chunk_size: int = BLOCK_ROWS,
    use_cache: bool = True,
    table: Optional[LandscapeTable] = None,
) -> OptimumResult:
    """Scan the whole space for the noise-free minimum runtime.

    With ``feasible_only=True`` (default) infeasible configurations are
    skipped — though launch failures already return ``inf`` and can never
    win, this also guards against constraint sets stricter than the
    device's own limits.

    Without a table, the live scan runs the simulator over the space's
    grid blocks of at most ``chunk_size`` configurations, on broadcast
    value columns (as :func:`~repro.gpu.landscape.compute_landscape`
    does).  With ``table`` (a precomputed landscape for this exact
    profile, arch and space), runtimes come from the table instead of the
    simulator: the scan becomes a blocked argmin over slices of the
    table, bit-identical to the live scan.  The scan keeps the first
    minimum, so the result does not depend on ``chunk_size``.
    """
    chunk_size = check_block_rows(chunk_size)
    key = _cache_key(profile, arch, space, feasible_only)
    if use_cache and key in _CACHE:
        return _CACHE[key]
    if table is not None and table.fingerprint != key[0]:
        raise ValueError(
            "landscape table fingerprint does not match the requested "
            "(profile, arch, space) — it was built for a different "
            "landscape"
        )

    best_runtime = np.inf
    best_flat = -1
    total = space.size
    apply_mask = feasible_only and len(space.constraints) > 0
    mask = _space_feasible_mask(space) if apply_mask else None
    considered = int(np.count_nonzero(mask)) if mask is not None else total
    for start, stop, columns in space.grid_blocks(chunk_size):
        if table is not None:
            runtimes = table.runtime_ms[start:stop]
        else:
            runtimes = simulate_columns(
                profile, arch, columns
            ).runtime_ms.reshape(-1)
        if mask is not None:
            runtimes = np.where(mask[start:stop], runtimes, np.inf)
        i = int(np.argmin(runtimes))
        if runtimes[i] < best_runtime:
            best_runtime = float(runtimes[i])
            best_flat = start + i

    if not np.isfinite(best_runtime):
        raise RuntimeError(
            "no feasible configuration found in the whole space"
        )
    out = OptimumResult(
        config=space.flat_to_config(best_flat),
        flat_index=best_flat,
        runtime_ms=best_runtime,
        scanned=considered,
        feasible_only=feasible_only,
    )
    if use_cache:
        _CACHE[key] = out
    return out


def _space_feasible_mask(space: SearchSpace) -> np.ndarray:
    """The full-space feasibility mask, computed once per space value.

    Feasibility depends only on the space's parameters and constraints —
    not on the profile or architecture — so the mask is memoized on a
    value-stable key and shared by every landscape scan over the space.
    It is evaluated per grid block on the broadcast value columns
    (:meth:`~repro.searchspace.SearchSpace.feasible_block`).
    """
    key = hashlib.sha256(
        json.dumps(_space_descriptor(space), sort_keys=True, default=str)  # repro: noqa[REP004] canonical form frozen at v1: adding separators= would change every deployed mask-cache key
        .encode()
    ).hexdigest()
    mask = _MASK_CACHE.get(key)
    if mask is None:
        mask = np.empty(space.size, dtype=bool)
        for start, stop, columns in space.grid_blocks(BLOCK_ROWS):
            mask[start:stop] = space.feasible_block(start, columns)
        _MASK_CACHE[key] = mask
    return mask


def clear_optimum_cache() -> None:
    """Drop memoized optima and masks (tests that mutate landscapes)."""
    _CACHE.clear()
    _MASK_CACHE.clear()
