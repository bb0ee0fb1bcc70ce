"""The Add benchmark: element-wise vector addition.

"The Add benchmark consists of a simple vector addition with two vectors
of size X" (Section V-D).  At the paper's problem size the kernel is run
over the full X*Y element grid, making it the purest *memory-bound*
workload in the suite: one FLOP against twelve bytes of compulsory
traffic.  Its tuning landscape is therefore dominated by coalescing
(work-group x-dimension, x-coarsening stride) and occupancy — compute-side
parameters barely matter, which is part of why different search algorithms
separate less on Add than on the other kernels.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..gpu.workload import WorkloadProfile
from .base import KernelSpec

__all__ = ["AddKernel"]


class AddKernel(KernelSpec):
    """``c[i] = a[i] + b[i]`` over an X*Y element grid."""

    name = "add"

    def make_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        shape = (self.y_size, self.x_size)
        return {
            "a": rng.standard_normal(shape, dtype=np.float32),
            "b": rng.standard_normal(shape, dtype=np.float32),
        }

    def reference(self, inputs: Dict[str, np.ndarray]) -> np.ndarray:
        a, b = inputs["a"], inputs["b"]
        if a.shape != b.shape:
            raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
        return a + b

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            name=self.name,
            x_size=self.x_size,
            y_size=self.y_size,
            reads_per_element=2.0,  # a[i] and b[i]
            writes_per_element=1.0,  # c[i]
            flops_per_element=1.0,  # one add
            stencil_radius=0,
            divergence_cv=0.0,
            # A trivial kernel: tiny register footprint, slow growth under
            # coarsening (just more live loads in flight).
            base_registers=16.0,
            registers_per_element=2.0,
        )
