"""The ImageCL-style benchmark suite: Add, Harris, Mandelbrot."""

from .add import AddKernel
from .base import PAPER_IMAGE_SIZE, KernelSpec
from .harris import HarrisKernel, box_filter_3x3, sobel_gradients
from .mandelbrot import IterationStats, MandelbrotKernel, iteration_statistics
from .suite import KERNEL_TYPES, PAPER_KERNEL_NAMES, get_kernel, paper_suite

__all__ = [
    "KernelSpec",
    "PAPER_IMAGE_SIZE",
    "AddKernel",
    "HarrisKernel",
    "sobel_gradients",
    "box_filter_3x3",
    "MandelbrotKernel",
    "iteration_statistics",
    "IterationStats",
    "KERNEL_TYPES",
    "PAPER_KERNEL_NAMES",
    "get_kernel",
    "paper_suite",
]
