"""GPU architecture descriptions.

The paper evaluates on three NVIDIA GPUs spanning five years of
architecture evolution (Section V-D): the GTX 980 (Maxwell, 2014), the
Titan V (Volta, 2017) and the RTX Titan (Turing, 2019).  We describe each
architecture by the parameters that drive the performance model in
:mod:`repro.gpu.simulator`: SM resources (the occupancy calculator inputs),
compute throughput, the memory hierarchy, and a handful of behavioural
coefficients (latency-hiding ability, cache effectiveness) that differ
between generations and therefore move the tuning optimum between devices —
the effect the paper's cross-architecture comparison measures.

Resource numbers follow the public CUDA occupancy tables for compute
capabilities 5.2, 7.0 and 7.5; behavioural coefficients are model
calibration choices, documented inline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "GpuArchitecture",
    "GTX_980",
    "TITAN_V",
    "RTX_TITAN",
    "PAPER_ARCHITECTURES",
    "get_architecture",
]


@dataclass(frozen=True)
class GpuArchitecture:
    """A parameterized GPU model.

    Occupancy-related fields mirror the CUDA occupancy calculator; the
    behavioural coefficients (``latency_hiding_occupancy``,
    ``cache_effectiveness``, ``coalescing_strictness``) shape how forgiving
    the device is of sub-optimal configurations.
    """

    name: str
    codename: str
    year: int
    compute_capability: str

    # -- SM resources (occupancy inputs) ---------------------------------
    sm_count: int
    warp_size: int = 32
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_blocks_per_sm: int = 32
    #: Maximum work-group size the ImageCL kernels can launch with.  The
    #: paper's prior-knowledge constraint (Section V-C) is that the
    #: work-group product must not exceed 256 — i.e. the OpenCL
    #: CL_KERNEL_WORK_GROUP_SIZE reported for these kernels; configurations
    #: above it fail to launch, which is exactly how the unconstrained SMBO
    #: methods get punished for sampling them.
    max_threads_per_block: int = 256
    registers_per_sm: int = 65536
    max_registers_per_thread: int = 255
    shared_mem_per_sm_bytes: int = 98304
    shared_mem_per_block_bytes: int = 49152

    # -- compute throughput ------------------------------------------------
    core_clock_ghz: float = 1.0
    fma_units_per_sm: int = 128  # FP32 lanes per SM
    sfu_ratio: float = 0.25  # special-function throughput vs FP32

    # -- memory hierarchy ----------------------------------------------------
    dram_bandwidth_gbs: float = 300.0
    l2_size_bytes: int = 2 * 1024 * 1024
    l2_bandwidth_ratio: float = 3.0  # L2 bandwidth as a multiple of DRAM
    cache_line_bytes: int = 128
    sector_bytes: int = 32

    # -- behavioural coefficients (model calibration) -------------------------
    #: Occupancy at which memory latency is effectively hidden.  Newer
    #: architectures (larger register files, better schedulers, HBM2) hide
    #: latency at lower occupancy.
    latency_hiding_occupancy: float = 0.45
    #: Fraction of strided/over-fetched traffic that caches absorb.  Maxwell
    #: does not cache global loads in L1 by default, so it is the least
    #: forgiving; Volta/Turing unify L1 with shared memory and recover most
    #: of the over-fetch.
    cache_effectiveness: float = 0.6
    #: How sharply mis-coalesced access patterns are punished (exponent on
    #: the over-fetch factor).
    coalescing_strictness: float = 1.0
    #: Fixed kernel launch + driver overhead, microseconds.
    launch_overhead_us: float = 6.0

    def peak_gflops(self) -> float:
        """Peak FP32 GFLOP/s (2 FLOPs per FMA)."""
        return 2.0 * self.fma_units_per_sm * self.sm_count * self.core_clock_ghz

    def machine_balance(self) -> float:
        """FLOPs per byte at the roofline ridge point."""
        return self.peak_gflops() / self.dram_bandwidth_gbs

    def with_overrides(self, **kwargs) -> "GpuArchitecture":
        """A copy with selected fields replaced (for ablations/tests)."""
        return replace(self, **kwargs)


#: NVIDIA GTX 980 — Maxwell GM204, compute capability 5.2 (Fall 2014).
#: 16 SMs, 224 GB/s GDDR5, 2 MB L2.  Strict coalescing (global loads bypass
#: L1), latency hiding needs relatively high occupancy.
GTX_980 = GpuArchitecture(
    name="GTX 980",
    codename="gtx_980",
    year=2014,
    compute_capability="5.2",
    sm_count=16,
    core_clock_ghz=1.216,
    fma_units_per_sm=128,
    dram_bandwidth_gbs=224.0,
    l2_size_bytes=2 * 1024 * 1024,
    l2_bandwidth_ratio=2.5,
    shared_mem_per_sm_bytes=98304,
    shared_mem_per_block_bytes=49152,
    latency_hiding_occupancy=0.55,
    cache_effectiveness=0.45,
    coalescing_strictness=1.25,
    launch_overhead_us=8.0,
)

#: NVIDIA Titan V — Volta GV100, compute capability 7.0 (2017).
#: 80 SMs, 652 GB/s HBM2, 4.5 MB L2, unified L1/shared.
TITAN_V = GpuArchitecture(
    name="Titan V",
    codename="titan_v",
    year=2017,
    compute_capability="7.0",
    sm_count=80,
    core_clock_ghz=1.455,
    fma_units_per_sm=64,
    dram_bandwidth_gbs=652.8,
    l2_size_bytes=4608 * 1024,
    l2_bandwidth_ratio=3.5,
    shared_mem_per_sm_bytes=98304,
    shared_mem_per_block_bytes=98304,
    latency_hiding_occupancy=0.35,
    cache_effectiveness=0.75,
    coalescing_strictness=0.9,
    launch_overhead_us=5.0,
)

#: NVIDIA RTX Titan (TITAN RTX) — Turing TU102, compute capability 7.5 (2019).
#: 72 SMs, 672 GB/s GDDR6, 6 MB L2.  Turing halves the per-SM warp slots
#: (max 32 warps / 1024 threads per SM).
RTX_TITAN = GpuArchitecture(
    name="RTX Titan",
    codename="rtx_titan",
    year=2019,
    compute_capability="7.5",
    sm_count=72,
    max_threads_per_sm=1024,
    max_warps_per_sm=32,
    max_blocks_per_sm=16,
    core_clock_ghz=1.770,
    fma_units_per_sm=64,
    dram_bandwidth_gbs=672.0,
    l2_size_bytes=6 * 1024 * 1024,
    l2_bandwidth_ratio=3.5,
    shared_mem_per_sm_bytes=65536,
    shared_mem_per_block_bytes=65536,
    latency_hiding_occupancy=0.40,
    cache_effectiveness=0.7,
    coalescing_strictness=1.0,
    launch_overhead_us=4.0,
)

#: The paper's testbed, keyed by codename.
PAPER_ARCHITECTURES: Dict[str, GpuArchitecture] = {
    arch.codename: arch for arch in (GTX_980, TITAN_V, RTX_TITAN)
}


def get_architecture(codename: str) -> GpuArchitecture:
    """Look up one of the paper's architectures by codename.

    Raises ``KeyError`` with the available names on a miss.
    """
    try:
        return PAPER_ARCHITECTURES[codename]
    except KeyError:
        raise KeyError(
            f"unknown architecture {codename!r}; available: "
            f"{sorted(PAPER_ARCHITECTURES)}"
        ) from None
