"""Random Search — the paper's baseline.

"For the case of Random Search (RS), we simply select the minimum runtime
from the collection of S samples for the given experiment" (Section VI-B).
RS is a non-SMBO method, so its samples come from the pre-collected,
constraint-respecting dataset (Section V-C) and it performs no live
measurements of its own: its stepper is :class:`DatasetTuner`'s, which
asks for nothing once the objective holds the slice, and the result is
the best of the objective's rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..searchspace import SearchSpace
from .base import BatchTuningResult, DatasetBatch, DatasetTuner

__all__ = ["RandomSearchTuner"]


class RandomSearchTuner(DatasetTuner):
    """Best-of-S over a random sample of feasible configurations."""

    name = "random_search"
    label = "RS"

    def tune_batch(
        self, space: SearchSpace, batch: DatasetBatch
    ) -> Optional[BatchTuningResult]:
        """All replications at once: one row-wise masked argmin.

        RS consumes no search-RNG draws and performs no live
        measurements, so an entire replication group reduces to pure
        array work.  Row semantics match the per-cell path's
        :meth:`~repro.search.base.Objective.best_observed` exactly: the
        first finite minimum wins; a row with no finite entry falls back
        to its first sample (``inf`` masking leaves ``argmin`` at index
        0 there, the same fallback the per-cell code takes explicitly).
        """
        runtimes = np.asarray(batch.runtimes_ms, dtype=np.float64)
        if runtimes.shape[1] == 0:
            raise ValueError("random search needs at least one sample")
        masked = np.where(np.isfinite(runtimes), runtimes, np.inf)
        best = np.argmin(masked, axis=1)
        rows = np.arange(runtimes.shape[0])
        return BatchTuningResult(
            best_flats=np.asarray(batch.flats, dtype=np.int64)[rows, best],
            best_runtimes_ms=runtimes[rows, best],
            history_runtimes=runtimes,
            samples_used=int(runtimes.shape[1]),
        )
