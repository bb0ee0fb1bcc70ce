"""The benchmark suite registry.

The paper evaluates exactly three ImageCL benchmarks (Section V-D): Add,
Harris and Mandelbrot, each at ``X = Y = 8192``.  :func:`paper_suite`
builds them at paper scale; :func:`get_kernel` constructs a single
benchmark at any problem size (tests and examples use small images).
"""

from __future__ import annotations

from typing import Dict, List, Type

from .add import AddKernel
from .base import PAPER_IMAGE_SIZE, KernelSpec
from .harris import HarrisKernel
from .mandelbrot import MandelbrotKernel

__all__ = [
    "KERNEL_TYPES",
    "PAPER_KERNEL_NAMES",
    "get_kernel",
    "paper_suite",
]

KERNEL_TYPES: Dict[str, Type[KernelSpec]] = {
    AddKernel.name: AddKernel,
    HarrisKernel.name: HarrisKernel,
    MandelbrotKernel.name: MandelbrotKernel,
}

#: Benchmark order used throughout figures, matching the paper.
PAPER_KERNEL_NAMES = ("add", "harris", "mandelbrot")


def get_kernel(
    name: str,
    x_size: int = PAPER_IMAGE_SIZE,
    y_size: int = PAPER_IMAGE_SIZE,
) -> KernelSpec:
    """Construct a benchmark kernel by name at the given problem size."""
    try:
        cls = KERNEL_TYPES[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(KERNEL_TYPES)}"
        ) from None
    return cls(x_size=x_size, y_size=y_size)


def paper_suite() -> List[KernelSpec]:
    """All three paper benchmarks at the paper's 8192x8192 problem size."""
    return [get_kernel(name) for name in PAPER_KERNEL_NAMES]

