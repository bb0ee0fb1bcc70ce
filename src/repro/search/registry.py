"""Registry of search algorithms: exactly the paper's five
(``PAPER_ALGORITHM_NAMES``), constructed by name for a study's cells.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import Tuner
from .bo_gp import BayesianGpTuner
from .bo_tpe import BayesianTpeTuner
from .genetic import GeneticAlgorithmTuner
from .random_forest import RandomForestTuner
from .random_search import RandomSearchTuner

__all__ = [
    "TUNER_FACTORIES",
    "PAPER_ALGORITHM_NAMES",
    "make_tuner",
    "paper_tuners",
]

TUNER_FACTORIES: Dict[str, Callable[[], Tuner]] = {
    RandomSearchTuner.name: RandomSearchTuner,
    RandomForestTuner.name: RandomForestTuner,
    GeneticAlgorithmTuner.name: GeneticAlgorithmTuner,
    BayesianGpTuner.name: BayesianGpTuner,
    BayesianTpeTuner.name: BayesianTpeTuner,
}

#: Algorithm order used in the paper's figures.
PAPER_ALGORITHM_NAMES = (
    "random_search",
    "random_forest",
    "genetic_algorithm",
    "bo_gp",
    "bo_tpe",
)


def make_tuner(name: str, **kwargs) -> Tuner:
    """Construct a tuner by registry name with optional overrides."""
    try:
        factory = TUNER_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown tuner {name!r}; available: {sorted(TUNER_FACTORIES)}"
        ) from None
    return factory(**kwargs)


def paper_tuners() -> List[Tuner]:
    """All five algorithms with the paper's settings."""
    return [make_tuner(name) for name in PAPER_ALGORITHM_NAMES]
