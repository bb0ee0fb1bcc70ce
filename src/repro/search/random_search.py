"""Random Search — the paper's baseline.

"For the case of Random Search (RS), we simply select the minimum runtime
from the collection of S samples for the given experiment" (Section VI-B).
RS is a non-SMBO method, so its samples come from the pre-collected,
constraint-respecting dataset (Section V-C) and it performs no live
measurements of its own: its stepper is :class:`DatasetTuner`'s, which
asks for nothing once the objective holds the slice, and the result is
the best of the objective's rows (:func:`~repro.search.base.best_of_rows`).
The experiment runner applies that same rule to a whole replication
group's stacked rows at once, without stepping the cells.
"""

from __future__ import annotations

from .base import DatasetTuner

__all__ = ["RandomSearchTuner"]


class RandomSearchTuner(DatasetTuner):
    """Best-of-S over a random sample of feasible configurations."""

    name = "random_search"
    label = "RS"
