"""Experimental design: sample sizes and experiment-count scaling.

Section V-B of the paper: outcome variance *decreases* with sample size,
so the experiment count is scaled inversely with the sample size — with at
least 50 experiments at ``sample_size = 400``, giving 800 experiments at
``sample_size = 25`` and proportionally in between:

    ========== ============
    samples S  experiments E
    ========== ============
    25         800
    50         400
    100        200
    200        100
    400        50
    ========== ============

A convenient invariant falls out: ``S * E = 20,000`` for every sample
size, which is exactly the size of the pre-collected dataset the non-SMBO
methods subdivide (Section VI-B) — experiment ``i`` takes rows
``[i*S, (i+1)*S)`` and the whole dataset is used exactly once per sample
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "ExperimentDesign",
    "PAPER_SAMPLE_SIZES",
    "PAPER_EXPERIMENTS_AT_LARGEST",
    "paper_design",
]

#: The paper's sample-size grid (footnote 1, Section VII).
PAPER_SAMPLE_SIZES = (25, 50, 100, 200, 400)
#: Experiments at the largest sample size (Section V-B).
PAPER_EXPERIMENTS_AT_LARGEST = 50


@dataclass(frozen=True)
class ExperimentDesign:
    """Sample sizes and per-size experiment counts.

    Parameters
    ----------
    sample_sizes:
        The S values evaluated (ascending).
    experiments_at_largest:
        E at the largest S; other sizes get
        ``E(s) = round(E_max * S_max / s)`` (the paper's inverse scaling).
    """

    sample_sizes: Tuple[int, ...] = PAPER_SAMPLE_SIZES
    experiments_at_largest: int = PAPER_EXPERIMENTS_AT_LARGEST

    def __post_init__(self) -> None:
        if len(self.sample_sizes) == 0:
            raise ValueError("need at least one sample size")
        if any(s < 1 for s in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        if list(self.sample_sizes) != sorted(set(self.sample_sizes)):
            raise ValueError("sample sizes must be strictly ascending")
        if self.experiments_at_largest < 1:
            raise ValueError("experiments_at_largest must be >= 1")

    def experiments_for(self, sample_size: int) -> int:
        """Experiment count for one sample size (inverse scaling)."""
        if sample_size not in self.sample_sizes:
            raise ValueError(
                f"sample size {sample_size} not in design {self.sample_sizes}"
            )
        largest = self.sample_sizes[-1]
        return int(round(self.experiments_at_largest * largest / sample_size))

    @property
    def schedule(self) -> Dict[int, int]:
        """``{sample_size: experiment_count}`` for the whole design."""
        return {s: self.experiments_for(s) for s in self.sample_sizes}

    @property
    def dataset_rows_required(self) -> int:
        """Pre-collected dataset rows needed so every (S, experiment) pair
        gets a disjoint slice: ``max_s S * E(s)``."""
        return max(s * e for s, e in self.schedule.items())

    def total_samples(self, final_repeats: int = 10) -> int:
        """Kernel launches per (algorithm, kernel, arch) combination,
        including the final ``final_repeats``x re-evaluations."""
        return sum(
            s * e + e * final_repeats for s, e in self.schedule.items()
        )

    def describe(self) -> str:
        rows = ", ".join(f"S={s}: E={e}" for s, e in self.schedule.items())
        return f"ExperimentDesign({rows})"


def paper_design() -> ExperimentDesign:
    """The paper's exact design: S in {25..400}, E in {800..50}."""
    return ExperimentDesign()
