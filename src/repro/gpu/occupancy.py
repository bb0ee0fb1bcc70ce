"""CUDA-style occupancy calculation, vectorized over configurations.

Occupancy — the fraction of a streaming multiprocessor's warp slots that a
kernel keeps populated — is the single most important mediator between the
paper's tuning parameters and performance: the work-group shape determines
block size, thread coarsening determines register pressure, and both feed
the block-residency limits below.  The calculation mirrors NVIDIA's
occupancy calculator: a block is resident only if *all four* resources
(thread slots, warp-implied thread granularity, registers, shared memory)
have room, and the limiting resource caps the count.

All functions are vectorized: they take NumPy arrays of per-configuration
quantities that broadcast against each other and return arrays of the
broadcast shape, so an exhaustive 2-million-configuration scan stays in
compiled NumPy loops — and a grid block computes the block-size limits
once per work-group shape rather than once per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import GpuArchitecture

__all__ = ["OccupancyResult", "compute_occupancy", "warps_per_block"]


@dataclass(frozen=True)
class OccupancyResult:
    """Vectorized occupancy outputs, one entry per configuration."""

    #: Resident blocks per SM (0 where the block cannot launch at all).
    blocks_per_sm: np.ndarray
    #: Resident warps per SM.
    warps_per_sm: np.ndarray
    #: warps_per_sm / max_warps_per_sm, in [0, 1].
    occupancy: np.ndarray
    #: True where the configuration cannot launch (block too large / over
    #: register or shared-memory budget).
    launch_failure: np.ndarray


def warps_per_block(block_threads: np.ndarray, warp_size: int) -> np.ndarray:
    """Warps needed to hold ``block_threads`` threads (ceil division)."""
    block_threads = np.asarray(block_threads, dtype=np.int64)
    return -(-block_threads // warp_size)


def compute_occupancy(
    arch: GpuArchitecture,
    block_threads: np.ndarray,
    regs_per_thread: np.ndarray,
    shared_mem_per_block: np.ndarray,
) -> OccupancyResult:
    """Occupancy for each configuration on ``arch``.

    Parameters
    ----------
    block_threads:
        Threads per block (``wg_x * wg_y * wg_z``).
    regs_per_thread:
        Register demand per thread (kernel- and coarsening-dependent; see
        :meth:`repro.kernels.base.KernelSpec.register_pressure`).
    shared_mem_per_block:
        Static shared-memory bytes per block.

    Notes
    -----
    Register allocation granularity is simplified to per-thread rounding
    (real hardware allocates per warp in banks of 256); the difference is
    below the fidelity of the rest of the model.
    """
    block_threads = np.asarray(block_threads, dtype=np.int64)
    regs_per_thread = np.asarray(regs_per_thread, dtype=np.float64)
    shared_mem_per_block = np.asarray(shared_mem_per_block, dtype=np.float64)

    wpb = warps_per_block(block_threads, arch.warp_size)

    # Hard launch failures: block exceeds a per-block device limit.
    # Register demand above the per-thread cap does NOT fail: the compiler
    # caps allocation and spills to local memory (the simulator charges the
    # spill traffic separately) — so occupancy sees the capped demand.
    failure = (
        (block_threads > arch.max_threads_per_block)
        | (block_threads < 1)
        | (shared_mem_per_block > arch.shared_mem_per_block_bytes)
    )
    regs_per_thread = np.minimum(
        regs_per_thread, float(arch.max_registers_per_thread)
    )

    with np.errstate(divide="ignore", invalid="ignore"):
        # Limit 1: thread slots (warp-granular: resident threads are
        # counted in whole warps).
        by_threads = arch.max_threads_per_sm // np.maximum(
            wpb * arch.warp_size, 1
        )
        # Limit 2: block slots.
        by_blocks = arch.max_blocks_per_sm
        # Limit 3: registers.
        regs_per_block = regs_per_thread * wpb * arch.warp_size
        by_regs = np.floor(
            arch.registers_per_sm / np.maximum(regs_per_block, 1.0)
        ).astype(np.int64)
        # Limit 4: shared memory (blocks using none are unlimited here).
        by_smem = np.where(
            shared_mem_per_block > 0,
            np.floor(
                arch.shared_mem_per_sm_bytes
                / np.maximum(shared_mem_per_block, 1.0)
            ).astype(np.int64),
            np.iinfo(np.int64).max,
        )

    blocks = np.minimum(
        np.minimum(np.minimum(by_threads, by_blocks), by_regs), by_smem
    )
    blocks = np.where(failure, 0, np.maximum(blocks, 0))
    warps = blocks * wpb
    warps = np.minimum(warps, arch.max_warps_per_sm)
    occ = warps / float(arch.max_warps_per_sm)

    return OccupancyResult(
        blocks_per_sm=blocks,
        warps_per_sm=warps,
        occupancy=occ,
        launch_failure=failure,
    )
