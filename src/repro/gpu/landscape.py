"""Precomputed landscape tables: one simulator pass per (kernel, arch).

The analytic performance model is deterministic — measurement noise is
layered on top by :mod:`repro.gpu.noise` — so the full noise-free runtime
landscape of one (workload profile, architecture, search space) triple is
a fixed vector over the flat configuration space: 2,097,152 float64
values ≈ 16 MiB for the paper's space, nine tables for the paper's full
study.  A :class:`LandscapeTable` holds that vector plus a launch-failure
bitmask, and everything downstream — tuner measurements, dataset
pre-collection, true-optimum scans — becomes a table lookup instead of a
simulator pipeline invocation.  This is the same move the pre-recorded
tuning-space benchmarks make (Schoonhoven et al.'s benchmarking suite,
Tørring et al.'s benchmark proposal): record the space once, then search
against the recording.

Tables are computed once with a grid-block full-space pass and persisted to
an on-disk cache (``--landscape-cache`` / ``REPRO_LANDSCAPE_CACHE``) as
two ``.npy`` files plus a JSON sidecar, keyed by a stable fingerprint of
everything that determines the landscape: the profile's fields, the
architecture's fields, the space's parameters and constraints, and
:data:`~repro.gpu.simulator.SIMULATOR_VERSION`.  Workers open the cached
arrays with ``np.load(mmap_mode="r")``, so a process pool shares one
physical copy of each table through the OS page cache instead of
re-simulating (or re-loading) per process.

Because noise is applied *after* the lookup and table values are
bit-identical to 1-row simulator calls, table-backed and live measurement
paths produce byte-identical studies — the parity suite in
``tests/experiments/test_landscape_parity.py`` enforces this.

Cache integrity is best-effort by design: a missing, torn, or corrupt
sidecar/array simply triggers a rebuild (writes are atomic via
``os.replace``, so a crashed writer never leaves a half-table that
validates).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from ..io import atomic_write_text, atomic_write_with
from ..obs.metrics import global_registry
from .arch import GpuArchitecture
from .simulator import SIMULATOR_VERSION, simulate_columns
from .workload import WorkloadProfile

__all__ = [
    "BLOCK_ROWS",
    "LandscapeTable",
    "landscape_fingerprint",
    "compute_landscape",
    "load_landscape",
    "save_landscape",
    "load_or_compute_landscape",
    "clear_landscape_memo",
    "default_cache_dir",
    "LANDSCAPE_CACHE_ENV",
    "LANDSCAPE_FORMAT_VERSION",
]

#: Environment variable naming the on-disk landscape cache directory.
LANDSCAPE_CACHE_ENV = "REPRO_LANDSCAPE_CACHE"

#: On-disk layout version; bump on incompatible sidecar/array changes.
LANDSCAPE_FORMAT_VERSION = 1

#: Most rows per block of every full-space pass: the landscape build, the
#: exhaustive optimum scan and the feasibility mask.  Each pass walks
#: :meth:`~repro.searchspace.SearchSpace.grid_blocks` blocks of at most
#: this many configurations (on the paper space: fixed ``thread_x`` and
#: ``thread_y``, a 16 x 8 x 8 x 8 grid of the rest).  The simulator is
#: elementwise, so tables and optima are bit-identical at any block size.
#: At 8,192 rows a float64 block is 64 KiB, so a block's temporaries stay
#: in a 2 MiB L2; at 262,144 rows each was 2 MiB, streamed through
#: memory, and the temporaries set the study's peak RSS.
BLOCK_ROWS = 1 << 13


def check_block_rows(block_rows: int) -> int:
    """``block_rows`` if it is a usable block size, else ``ValueError``."""
    if int(block_rows) < 1:
        raise ValueError(f"block size must be >= 1, got {block_rows!r}")
    return int(block_rows)


def default_cache_dir() -> Optional[Path]:
    """The cache directory from ``REPRO_LANDSCAPE_CACHE``, if set."""
    value = os.environ.get(LANDSCAPE_CACHE_ENV, "").strip()
    return Path(value) if value else None


# -- fingerprinting ----------------------------------------------------------

def _space_descriptor(space) -> dict:
    """Everything about a space that determines its landscape vector."""
    return {
        "parameters": [
            {
                "name": p.name,
                "values": [p.value_at(i) for i in range(p.cardinality)],
            }
            for p in space.parameters
        ],
        "constraints": space.constraints.describe(),
    }


def landscape_identity(
    profile: WorkloadProfile, arch: GpuArchitecture, space
) -> dict:
    """The canonical identity document a fingerprint is hashed from."""
    return {
        "simulator_version": SIMULATOR_VERSION,
        "profile": asdict(profile),
        "arch": asdict(arch),
        "space": _space_descriptor(space),
    }


def landscape_fingerprint(
    profile: WorkloadProfile, arch: GpuArchitecture, space
) -> str:
    """Stable hex fingerprint of one (profile, arch, space) landscape.

    Hashed from field *values*, never live object identities, so it is
    stable across processes, pickling round-trips, and interpreter runs —
    any change to the profile, the architecture, the space's parameters
    or constraints, or the simulator version yields a new fingerprint.
    """
    doc = landscape_identity(profile, arch, space)
    blob = json.dumps(doc, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


# -- the table ---------------------------------------------------------------

class LandscapeTable:
    """The full noise-free runtime landscape of one (kernel, arch) pair.

    Parameters
    ----------
    space:
        The search space whose flat-index order indexes the vectors.
    runtime_ms:
        ``(space.size,)`` float64 noise-free runtimes (``inf`` for launch
        failures); may be a read-only memmap.
    failure_bits:
        ``np.packbits`` bitmask of launch failures, MSB-first (bit ``i``
        of the space lives in byte ``i >> 3`` at position ``7 - (i & 7)``).
        Kept separately from ``runtime_ms`` because a non-failing
        configuration can still overflow to ``inf`` in principle — the
        mask preserves the simulator's exact ``launch_failure`` output.
    fingerprint:
        The table's :func:`landscape_fingerprint`.
    """

    def __init__(
        self,
        space,
        runtime_ms: np.ndarray,
        failure_bits: np.ndarray,
        fingerprint: str,
        profile_name: str,
        arch_codename: str,
        source: str = "computed",
    ) -> None:
        if runtime_ms.shape != (space.size,):
            raise ValueError(
                f"runtime table shape {runtime_ms.shape} does not match "
                f"space size {space.size}"
            )
        expected_bytes = (space.size + 7) // 8
        if failure_bits.shape != (expected_bytes,):
            raise ValueError(
                f"failure bitmask has {failure_bits.shape} bytes, expected "
                f"({expected_bytes},)"
            )
        self.space = space
        self.runtime_ms = runtime_ms
        self.failure_bits = failure_bits
        self.fingerprint = fingerprint
        self.profile_name = profile_name
        self.arch_codename = arch_codename
        #: ``"computed"`` or ``"cache"`` — how this instance materialized.
        self.source = source

    @property
    def size(self) -> int:
        return int(self.runtime_ms.shape[0])

    # -- lookups -------------------------------------------------------------
    def runtimes_at(self, flats: np.ndarray) -> np.ndarray:
        """Fancy-indexed noise-free runtimes (always an in-memory copy)."""
        return np.asarray(
            self.runtime_ms[np.asarray(flats, dtype=np.int64)],
            dtype=np.float64,
        )

    def failures_at(self, flats: np.ndarray) -> np.ndarray:
        """Vectorized launch-failure flags for an array of flat indices."""
        flats = np.asarray(flats, dtype=np.int64)
        bytes_ = self.failure_bits[flats >> 3].astype(np.uint8)
        shift = (7 - (flats & 7)).astype(np.uint8)
        return ((bytes_ >> shift) & 1).astype(bool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LandscapeTable({self.profile_name}/{self.arch_codename}, "
            f"size={self.size}, source={self.source}, "
            f"fingerprint={self.fingerprint})"
        )


# -- computation -------------------------------------------------------------

def compute_landscape(
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    space,
    chunk_size: int = BLOCK_ROWS,
) -> LandscapeTable:
    """One full-space simulator pass -> in-memory :class:`LandscapeTable`.

    The pass evaluates the model on each grid block of at most
    ``chunk_size`` configurations (:meth:`SearchSpace.grid_blocks`): six
    broadcast value columns, no per-row decode, and every model quantity
    computed over only the parameters it depends on.  The model is
    elementwise, so every entry is bit-identical to what a 1-row
    ``simulate_runtimes`` call returns for that configuration — the
    property the measurement fast path relies on.
    """
    chunk_size = check_block_rows(chunk_size)
    runtimes = np.empty(space.size, dtype=np.float64)
    failures = np.zeros(space.size, dtype=bool)
    for start, stop, columns in space.grid_blocks(chunk_size):
        result = simulate_columns(profile, arch, columns)
        runtimes[start:stop] = result.runtime_ms.reshape(-1)
        failures[start:stop] = result.launch_failure.reshape(-1)
    global_registry().counter("landscape_tables_built_total").inc()
    return LandscapeTable(
        space,
        runtimes,
        np.packbits(failures),
        landscape_fingerprint(profile, arch, space),
        profile.name,
        arch.codename,
        source="computed",
    )


# -- persistence -------------------------------------------------------------

def _paths(cache_dir: Path, fingerprint: str) -> Tuple[Path, Path, Path]:
    base = cache_dir / fingerprint
    return (
        base.with_suffix(".json"),
        base.with_suffix(".runtimes.npy"),
        base.with_suffix(".failures.npy"),
    )


def _atomic_save_array(path: Path, array: np.ndarray) -> None:
    atomic_write_with(path, lambda fh: np.save(fh, array))


def save_landscape(
    table: LandscapeTable,
    cache_dir,
    profile: WorkloadProfile,
    arch: GpuArchitecture,
) -> Path:
    """Persist a table; returns the sidecar path.

    Arrays are written first, the sidecar last, each via atomic rename —
    a reader either sees a complete, validating table or nothing.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    sidecar, runtimes_path, failures_path = _paths(cache_dir, table.fingerprint)
    _atomic_save_array(runtimes_path, np.asarray(table.runtime_ms))
    _atomic_save_array(failures_path, np.asarray(table.failure_bits))
    doc = {
        "format_version": LANDSCAPE_FORMAT_VERSION,
        "fingerprint": table.fingerprint,
        "size": table.size,
        "profile_name": table.profile_name,
        "arch_codename": table.arch_codename,
        "runtimes_file": runtimes_path.name,
        "failures_file": failures_path.name,
        "identity": landscape_identity(profile, arch, table.space),
    }
    atomic_write_text(
        sidecar, json.dumps(doc, sort_keys=True, default=str, indent=1)
    )
    return sidecar


def load_landscape(
    cache_dir,
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    space,
) -> Optional[LandscapeTable]:
    """Open a cached table memory-mapped, or ``None`` if absent/invalid.

    Every validation failure — missing files, unparseable or torn
    sidecar, wrong format version, fingerprint/size/dtype mismatch —
    returns ``None`` so the caller rebuilds; a poisoned cache can cost a
    recompute but never a crash or a wrong landscape.
    """
    fingerprint = landscape_fingerprint(profile, arch, space)
    sidecar, runtimes_path, failures_path = _paths(
        Path(cache_dir), fingerprint
    )
    try:
        doc = json.loads(sidecar.read_text())
        if (
            doc.get("format_version") != LANDSCAPE_FORMAT_VERSION
            or doc.get("fingerprint") != fingerprint
            or doc.get("size") != space.size
        ):
            return None
        runtimes = np.load(runtimes_path, mmap_mode="r")
        failure_bits = np.load(failures_path, mmap_mode="r")
    except (OSError, ValueError, json.JSONDecodeError):
        return None
    if (
        runtimes.dtype != np.float64
        or runtimes.shape != (space.size,)
        or failure_bits.dtype != np.uint8
        or failure_bits.shape != ((space.size + 7) // 8,)
    ):
        return None
    global_registry().counter("landscape_tables_loaded_total").inc()
    return LandscapeTable(
        space,
        runtimes,
        failure_bits,
        fingerprint,
        str(doc.get("profile_name", profile.name)),
        str(doc.get("arch_codename", arch.codename)),
        source="cache",
    )


#: Per-process memo of opened tables: (cache dir or None, fingerprint) ->
#: table.  A worker running many cells of the same landscape opens the
#: memmap once; the OS page cache shares the physical pages pool-wide.
_OPEN_TABLES: Dict[Tuple[Optional[str], str], LandscapeTable] = {}


def clear_landscape_memo() -> None:
    """Drop per-process table handles (test isolation)."""
    _OPEN_TABLES.clear()  # repro: noqa[REP007] clear_landscape_memo() is test/teardown support dropping per-process mmap handles; handles are process-local by nature and hold no result state.


def load_or_compute_landscape(
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    space,
    cache_dir=None,
) -> LandscapeTable:
    """The one entry point: memoized, cache-backed table acquisition.

    With ``cache_dir`` set, a valid cached table is memory-mapped;
    otherwise the table is computed, persisted, and re-opened mapped so
    every consumer shares pages.  With ``cache_dir=None`` the table is
    computed in memory (and still memoized per process).
    """
    key = (str(cache_dir) if cache_dir is not None else None,
           landscape_fingerprint(profile, arch, space))
    table = _OPEN_TABLES.get(key)
    if table is not None:
        return table
    if cache_dir is not None:
        table = load_landscape(cache_dir, profile, arch, space)
        if table is None:
            table = compute_landscape(profile, arch, space)
            save_landscape(table, cache_dir, profile, arch)
            reloaded = load_landscape(cache_dir, profile, arch, space)
            if reloaded is not None:
                table = reloaded
    else:
        table = compute_landscape(profile, arch, space)
    _OPEN_TABLES[key] = table  # repro: noqa[REP007] Per-process cache of read-only mmap handles onto the fingerprinted on-disk table: each worker must own its own file handle (handles cannot be shared across fork), and the mapped bytes are identical in every process.
    return table
