"""Statistics: Mann-Whitney U, CLES, bootstrap CIs, pair comparisons."""

from .bootstrap import (
    DEFAULT_BOOTSTRAP_SEED,
    BootstrapInterval,
    bootstrap_ci,
)
from .cles import cles_greater, cles_smaller
from .mannwhitney import (
    PAPER_ALPHA,
    MannWhitneyResult,
    mann_whitney_u,
    rankdata_average,
)
from .summary import PairComparison, compare_pair, describe, median_speedup

__all__ = [
    "mann_whitney_u",
    "MannWhitneyResult",
    "rankdata_average",
    "PAPER_ALPHA",
    "cles_greater",
    "cles_smaller",
    "bootstrap_ci",
    "BootstrapInterval",
    "DEFAULT_BOOTSTRAP_SEED",
    "compare_pair",
    "PairComparison",
    "median_speedup",
    "describe",
]
