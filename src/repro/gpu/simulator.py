"""The composed GPU performance model.

:func:`simulate_columns` turns (workload profile, architecture, six
broadcastable parameter columns) into deterministic kernel runtimes,
composing:

1. launch geometry (:mod:`repro.gpu.geometry`),
2. occupancy (:mod:`repro.gpu.occupancy`),
3. DRAM traffic with coalescing/stencil effects (:mod:`repro.gpu.memory`),
4. instruction demand with divergence/warp-fill effects
   (:mod:`repro.gpu.compute`),
5. a latency-hiding roofline with wave quantization and launch overhead.

The columns may be one ``(n,)`` array each — :func:`simulate_runtimes`,
the per-row entry point, is a thin adapter that hands over the columns
of an ``(n, 6)`` matrix — or one axis each of a configuration grid, which
is how full-space passes evaluate a block
(:meth:`repro.searchspace.SearchSpace.grid_blocks`).  On a grid each
intermediate quantity is computed over only the parameters it depends
on.  Both shapes run the same model body, and its arithmetic is
elementwise, so a grid gives every configuration the bits its matrix row
gets.  The one layout-sensitive step is NumPy's float64 transcendental
loops (``exp``/``log``/``log1p``/``log2``/``**``), which may pick a SIMD
kernel or libm by input layout, so the model keeps three rules: those
functions only see freshly computed contiguous arrays (never
``broadcast_to`` views), every ``**`` exponent is a Python scalar, and
fixed columns arrive as 1-element arrays (NumPy *scalars* take a
different ``pow``).

Configurations that cannot launch (work-group product over the device
limit — the paper's 256 constraint) get ``runtime = inf``; the measurement
layer (:mod:`repro.gpu.device`) reports these as failed runs exactly like a
real tuning framework receiving an OpenCL error.

The model is intentionally *analytic and deterministic*: stochastic
measurement noise is layered on top by :mod:`repro.gpu.noise`, so the true
optimum of a landscape is well-defined and exhaustively computable — which
is what the paper's "percentage of optimum" metric (Fig. 2/3) needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.metrics import global_registry
from .arch import GpuArchitecture
from .compute import compute_demand
from .geometry import derive_geometry
from .memory import memory_demand
from .occupancy import compute_occupancy
from .ruggedness import ruggedness_factor
from .workload import WorkloadProfile

__all__ = [
    "SimulationResult",
    "simulate_columns",
    "simulate_runtimes",
    "CONFIG_COLUMNS",
    "SIMULATOR_VERSION",
]

#: Column order expected in configuration matrices.
CONFIG_COLUMNS = ("thread_x", "thread_y", "thread_z", "wg_x", "wg_y", "wg_z")

#: Version of the analytic model's *outputs*.  Bump whenever a change to
#: this pipeline (or the modules it composes) alters any runtime value —
#: precomputed landscape tables (:mod:`repro.gpu.landscape`) key their
#: cache fingerprint on it and rebuild automatically.
SIMULATOR_VERSION = 1

#: Pipeline utilization saturates once occ * ilp reaches this many warp
#: slots' worth of issue parallelism.
_COMPUTE_SATURATION = 0.25
#: Floor on the latency-hiding factor: even a single resident warp makes
#: *some* progress.
_LATENCY_FLOOR = 0.04


@dataclass(frozen=True)
class SimulationResult:
    """Simulation output for a batch (or grid) of configurations.

    Every field has the shape of the input: ``(n,)`` for a matrix, the
    columns' broadcast shape for a grid.
    """

    #: Deterministic kernel time in milliseconds; ``inf`` for launch
    #: failures.
    runtime_ms: np.ndarray
    #: True where the configuration failed to launch.
    launch_failure: np.ndarray
    #: Occupancy in [0, 1].
    occupancy: np.ndarray
    #: Memory-side time (ms) before overlap composition.
    memory_time_ms: np.ndarray
    #: Compute-side time (ms) before overlap composition.
    compute_time_ms: np.ndarray


#: (registry, evals counter, failures counter) — the counter objects are
#: cached so the 1-row fallback path pays one identity check instead of
#: two registry dict lookups per call; revalidated against the live
#: registry so ``reset_global_registry()`` (test isolation) still works.
_COUNTERS: tuple = (None, None, None)


def _registry_counters() -> tuple:
    global _COUNTERS
    registry = global_registry()
    if _COUNTERS[0] is not registry:
        _COUNTERS = (
            registry,
            registry.counter("simulator_evals_total"),
            registry.counter("simulator_launch_failures_total"),
        )
    return _COUNTERS


def _validate_matrix(configs: np.ndarray) -> np.ndarray:
    configs = np.asarray(configs)
    if configs.ndim == 1:
        configs = configs.reshape(1, -1)
    if configs.ndim != 2 or configs.shape[1] != len(CONFIG_COLUMNS):
        raise ValueError(
            f"configuration matrix must be (n, {len(CONFIG_COLUMNS)}) with "
            f"columns {CONFIG_COLUMNS}, got shape {configs.shape}"
        )
    return configs.astype(np.int64, copy=False)


def simulate_runtimes(
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    configs: np.ndarray,
) -> SimulationResult:
    """Deterministic runtimes for a batch of configurations.

    The per-row entry point: the matrix's columns go through
    :func:`simulate_columns`, so a row gets the same bits here as in a
    full-space grid pass.

    Parameters
    ----------
    configs:
        ``(n, 6)`` integer matrix with columns
        ``(thread_x, thread_y, thread_z, wg_x, wg_y, wg_z)`` — parameter
        *values*, not ordinal indices.
    """
    configs = _validate_matrix(configs)
    return simulate_columns(
        profile, arch, tuple(configs[:, i] for i in range(6))
    )


def simulate_columns(
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    columns: Sequence[np.ndarray],
) -> SimulationResult:
    """Deterministic runtimes over six broadcastable parameter columns.

    ``columns`` holds ``(thread_x, thread_y, thread_z, wg_x, wg_y, wg_z)``
    values as integer arrays that broadcast against each other: one
    ``(n,)`` column each for ``n`` rows, or one grid axis each (fixed
    parameters as 1-element arrays, not NumPy scalars).  Every result
    field has the columns' broadcast shape; fields that depend on fewer
    parameters come back as read-only broadcast views.  The simulator
    counters advance by the number of configurations, as for the
    equivalent matrix.
    """
    if len(columns) != len(CONFIG_COLUMNS):
        raise ValueError(
            f"expected {len(CONFIG_COLUMNS)} columns {CONFIG_COLUMNS}, got "
            f"{len(columns)}"
        )
    columns = tuple(np.asarray(c, dtype=np.int64) for c in columns)
    shape = np.broadcast_shapes(*(c.shape for c in columns))
    tx, ty, tz, wx, wy, wz = columns

    geom = derive_geometry(profile, tx, ty, tz, wx, wy, wz, arch.warp_size)

    regs = profile.register_pressure(geom.effective_coarsening)
    smem = (
        profile.shared_bytes_per_element
        * geom.effective_coarsening.astype(np.float64)
        + profile.shared_bytes_per_thread
    ) * geom.block_threads.astype(np.float64)
    occ = compute_occupancy(arch, geom.block_threads, regs, smem)
    failure = occ.launch_failure | (occ.blocks_per_sm == 0)

    mem = memory_demand(profile, geom, arch, tx)
    comp = compute_demand(profile, geom, arch, tx, ty)

    # Register spilling: demand above the per-thread cap is spilled to
    # local memory (DRAM-backed, partially L1-cached).  Each spilled live
    # value costs a store + reload per element it serves.
    spilled = np.maximum(regs - arch.max_registers_per_thread, 0.0)
    spill_bytes = (
        float(profile.elements)
        * (
            spilled
            / np.maximum(geom.effective_coarsening.astype(np.float64), 1.0)
        )
        * 8.0  # 4-byte store + 4-byte reload
        * (1.0 - 0.5 * arch.cache_effectiveness)
    )
    total_traffic = mem.total_bytes + spill_bytes

    with np.errstate(divide="ignore", invalid="ignore"):
        # Latency hiding: resident warps (occupancy) and per-thread ILP
        # jointly cover memory latency.  Threads that die at the boundary
        # guard keep their block's resources without contributing, so the
        # useful-thread fraction dilutes achieved occupancy.
        hiding = occ.occupancy * geom.useful_thread_fraction * comp.ilp
        latency_factor = np.clip(
            (hiding / arch.latency_hiding_occupancy) ** 0.75,
            _LATENCY_FLOOR,
            1.0,
        )
        mem_time_ms = total_traffic / (
            arch.dram_bandwidth_gbs * 1e9 * latency_factor
        ) * 1e3

        # Compute pipelines saturate at lower parallelism than DRAM.
        pipe_util = np.clip(
            np.sqrt(hiding / _COMPUTE_SATURATION), _LATENCY_FLOOR, 1.0
        )
        compute_time_ms = comp.effective_flops / (
            arch.peak_gflops() * 1e9 * pipe_util
        ) * 1e3

        # Smooth-max composition: memory and compute overlap, but the
        # longer side dominates (p-norm with p=4 approximates max while
        # charging a little for contention near the ridge).
        p = 4.0
        kernel_ms = (mem_time_ms**p + compute_time_ms**p) ** (1.0 / p)

        # Wave quantization: the grid drains in ceil(blocks / capacity)
        # waves; a nearly-empty trailing wave costs as much as a full one.
        capacity = occ.blocks_per_sm.astype(np.float64) * arch.sm_count
        exact_waves = geom.total_blocks.astype(np.float64) / np.maximum(
            capacity, 1.0
        )
        waves = np.ceil(np.maximum(exact_waves, 1.0))
        quant = waves / np.maximum(exact_waves, 1.0)
        # Quantization only matters when the launch is a handful of waves;
        # damp it as wave count grows (later waves pipeline into earlier
        # ones on real hardware).
        quant = 1.0 + (quant - 1.0) / np.sqrt(waves)

        total_ms = kernel_ms * quant + arch.launch_overhead_us * 1e-3

    # Deterministic landscape ruggedness (see repro.gpu.ruggedness): fixed
    # per (kernel, architecture, configuration), independent of run order.
    total_ms = total_ms * ruggedness_factor(
        columns,
        f"{profile.name}/{arch.codename}",
        profile.ruggedness_sigma_slow,
        profile.ruggedness_sigma_fast,
    )

    total_ms = np.where(failure, np.inf, total_ms)

    result = SimulationResult(*(
        field if field.shape == shape else np.broadcast_to(field, shape)
        for field in (
            total_ms,
            failure,
            occ.occupancy,
            np.where(failure, np.inf, mem_time_ms),
            np.where(failure, np.inf, compute_time_ms),
        )
    ))

    # Process-wide accounting: two counter adds per *batch*, so the
    # vectorized hot path is unaffected.  Worker processes accumulate
    # their own registries; per-cell deltas travel back to the study
    # parent via ExperimentResult.metrics.
    _, evals_counter, failures_counter = _registry_counters()
    evals_counter.inc(float(math.prod(shape)))
    failures = int(np.count_nonzero(result.launch_failure))
    if failures:
        failures_counter.inc(float(failures))
    return result
