"""Pre-collected sample datasets for the non-SMBO methods.

Section VI-B: "For our non-SMBO approaches, we streamline the experimental
sample collection process by creating a dataset of 20,000 samples in one
go for each architecture and benchmark.  We can then subdivide the samples
for each sample size and experiment."  The samples are drawn with the
constraint specification (Section V-C), i.e. feasible-only.

A :class:`PrecollectedDataset` stores flat configuration indices plus one
noisy measured runtime per row; :meth:`slice_for` hands experiment ``i``
of sample size ``S`` its disjoint rows ``[i*S, (i+1)*S)`` — with the
paper's design each sample size partitions the dataset exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.device import SimulatedDevice
from ..searchspace import SearchSpace

__all__ = ["PrecollectedDataset", "collect_dataset"]


@dataclass(frozen=True)
class PrecollectedDataset:
    """Measured random samples for one (kernel, architecture) pair."""

    #: Flat configuration indices into ``space`` (feasible rows only).
    flats: np.ndarray
    #: One noisy measured runtime per row, ms.
    runtimes_ms: np.ndarray

    def __post_init__(self) -> None:
        if self.flats.shape != self.runtimes_ms.shape:
            raise ValueError("flats/runtimes shape mismatch")
        if self.flats.ndim != 1:
            raise ValueError("dataset arrays must be 1-D")

    @property
    def size(self) -> int:
        return int(self.flats.size)

    def slice_for(self, sample_size: int, experiment: int) -> "PrecollectedDataset":
        """Rows ``[experiment * S, (experiment + 1) * S)``."""
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        start = experiment * sample_size
        stop = start + sample_size
        if experiment < 0 or stop > self.size:
            raise ValueError(
                f"slice [{start}, {stop}) out of range for dataset of "
                f"{self.size} rows (sample_size={sample_size}, "
                f"experiment={experiment})"
            )
        return PrecollectedDataset(
            flats=self.flats[start:stop],
            runtimes_ms=self.runtimes_ms[start:stop],
        )


def collect_dataset(
    device: SimulatedDevice,
    space: SearchSpace,
    n_samples: int,
    rng: np.random.Generator,
) -> PrecollectedDataset:
    """Measure ``n_samples`` feasible random configurations in one pass.

    Sampling respects the space's constraints (the paper's constraint
    specification); measurement is one noisy run per configuration, in
    one batched device call (a table lookup or one simulator pass).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    flats = space.sample_flat(rng, n_samples, feasible_only=True)
    return PrecollectedDataset(
        flats=flats, runtimes_ms=device.measure_flats(flats)
    )
