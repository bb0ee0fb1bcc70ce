"""The five autotuning search techniques the paper compares.

RS and RF are *non-SMBO* (dataset-slice) methods; GA, BO GP and BO TPE
measure live (the paper's SMBO group, Section V-C).
"""

from .base import (
    BudgetExhausted,
    DatasetTuner,
    Objective,
    Stepper,
    Tuner,
    TuningResult,
    best_of_rows,
    best_so_far,
    run_to_end,
)
from .bo_gp import BayesianGpTuner, expected_improvement
from .bo_tpe import BayesianTpeTuner
from .genetic import GeneticAlgorithmTuner
from .random_forest import RandomForestTuner
from .random_search import RandomSearchTuner
from .registry import (
    PAPER_ALGORITHM_NAMES,
    TUNER_FACTORIES,
    make_tuner,
    paper_tuners,
)

__all__ = [
    "Objective",
    "BudgetExhausted",
    "Tuner",
    "DatasetTuner",
    "TuningResult",
    "best_of_rows",
    "best_so_far",
    "Stepper",
    "run_to_end",
    "RandomSearchTuner",
    "RandomForestTuner",
    "GeneticAlgorithmTuner",
    "BayesianGpTuner",
    "BayesianTpeTuner",
    "expected_improvement",
    "TUNER_FACTORIES",
    "PAPER_ALGORITHM_NAMES",
    "make_tuner",
    "paper_tuners",
]
