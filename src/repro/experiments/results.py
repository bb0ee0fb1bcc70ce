"""Typed result containers, persistence, and aggregation.

A study produces one :class:`ExperimentResult` per (algorithm, kernel,
architecture, sample size, experiment) tuple; :class:`StudyResults` holds
them all plus the per-landscape true optima, and derives the quantities
the paper's figures plot:

* *percentage of optimum* — ``optimum_runtime / final_runtime`` (Fig. 2/3),
* *median speedup over RS* (Fig. 4a),
* *CLES over RS* (Fig. 4b).

Results serialize to a single JSON document so benches/examples can cache
expensive studies and the reporting layer can run standalone.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..io import atomic_write_text
from ..stats import cles_smaller

__all__ = ["ExperimentResult", "CellKey", "StudyResults"]


@dataclass(frozen=True)
class ExperimentResult:
    """One experiment: one tuning run plus the final 10x re-evaluation."""

    algorithm: str
    kernel: str
    arch: str
    sample_size: int
    experiment: int
    #: Mean of the final configuration's repeated evaluations, ms —
    #: the paper's reported quantity (Section VI-A).
    final_runtime_ms: float
    #: Flat index of the chosen configuration.
    best_flat: int
    #: Best single-run runtime observed during the search, ms.
    observed_best_ms: float
    #: Measurements consumed by the search itself (= sample size).
    samples_used: int
    #: Best-so-far runtime after each evaluation (the convergence
    #: trajectory; ``inf`` entries while every sample so far failed to
    #: launch).  Empty for results recorded before this field existed.
    convergence: List[float] = field(default_factory=list)
    #: Per-cell observability counters (``evaluations_total``,
    #: ``launch_failures_total``, the ``*_seconds_sum`` /
    #: ``*_seconds_count`` timing pairs, ...) merged into the
    #: study-level registry — this is how worker-process metrics cross
    #: the pool boundary and survive checkpoint resume.
    #: Excluded from equality: timing sums are wall-clock measurements,
    #: and observability metadata must not affect result identity (the
    #: checkpoint-resume bit-identical contract).
    metrics: Dict[str, float] = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        """Shallow ``{field: value}`` view of this result.

        ``json.dumps`` writes the same bytes for it as for
        ``dataclasses.asdict``, whose deep copy of the convergence curve
        costs two orders of magnitude more.  The values are shared with
        the (frozen) result; treat them as read-only.
        """
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    def to_durable_dict(self) -> dict:
        """:meth:`to_dict` without the wall-clock ``*_seconds_sum`` metrics.

        Those sums (evaluate_seconds_sum, model fit timings, …) vary run
        to run and backend to backend.  Checkpoint lines and result-store
        entries keep only deterministic metrics, so their bytes are the
        same across executors, worker counts and machines.
        """
        data = self.to_dict()
        data["metrics"] = {
            k: v
            for k, v in self.metrics.items()
            if not k.endswith("_seconds_sum")
        }
        return data


_FIELD_NAMES = tuple(f.name for f in fields(ExperimentResult))


#: (algorithm, kernel, arch, sample_size) — one population of experiments.
CellKey = Tuple[str, str, str, int]


class StudyResults:
    """All experiment results of one study, with derived metrics."""

    def __init__(
        self,
        results: Iterable[ExperimentResult] = (),
        optima: Optional[Dict[Tuple[str, str], float]] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        self._results: List[ExperimentResult] = list(results)
        #: (kernel, arch) -> true optimum runtime, ms.
        self.optima: Dict[Tuple[str, str], float] = dict(optima or {})
        self.metadata: dict = dict(metadata or {})

    # -- collection -------------------------------------------------------------
    def add(self, result: ExperimentResult) -> None:
        self._results.append(result)

    def extend(self, results: Iterable[ExperimentResult]) -> None:
        self._results.extend(results)

    def __len__(self) -> int:
        return len(self._results)

    @property
    def results(self) -> List[ExperimentResult]:
        return list(self._results)

    @property
    def failed_cells(self) -> List[dict]:
        """Cells that failed during the study (from ``metadata``).

        Each entry carries ``cell_key``, ``error``, ``error_type``,
        ``traceback`` and ``attempts``; failed cells have no
        :class:`ExperimentResult` row, so populations simply shrink
        instead of figure generation crashing on poisoned values.
        """
        return list(self.metadata.get("failed_cells", []))

    # -- axes ------------------------------------------------------------------
    def _axis(self, attr: str) -> List:
        seen: Dict = {}
        for r in self._results:
            seen.setdefault(getattr(r, attr), None)
        return list(seen)

    @property
    def algorithms(self) -> List[str]:
        return self._axis("algorithm")

    @property
    def kernels(self) -> List[str]:
        return self._axis("kernel")

    @property
    def archs(self) -> List[str]:
        return self._axis("arch")

    @property
    def sample_sizes(self) -> List[int]:
        return sorted(set(r.sample_size for r in self._results))

    # -- populations --------------------------------------------------------------
    def population(
        self, algorithm: str, kernel: str, arch: str, sample_size: int
    ) -> np.ndarray:
        """Final runtimes (ms) of every experiment in one cell."""
        vals = [
            r.final_runtime_ms
            for r in self._results
            if r.algorithm == algorithm
            and r.kernel == kernel
            and r.arch == arch
            and r.sample_size == sample_size
        ]
        if not vals:
            raise KeyError(
                f"no results for cell ({algorithm}, {kernel}, {arch}, "
                f"{sample_size})"
            )
        return np.asarray(vals, dtype=np.float64)

    def convergence_curves(
        self, algorithm: str, kernel: str, arch: str, sample_size: int
    ) -> np.ndarray:
        """Best-so-far curves of one cell, shape ``(n_experiments, L)``.

        Ragged curves (a tuner may stop a few evaluations early) are
        padded by repeating their final best — the incumbent does not
        change once the search stops.  Raises :class:`KeyError` when the
        cell has no recorded curves (e.g. results loaded from a pre-
        convergence file).
        """
        curves = [
            r.convergence
            for r in self._results
            if r.algorithm == algorithm
            and r.kernel == kernel
            and r.arch == arch
            and r.sample_size == sample_size
            and r.convergence
        ]
        if not curves:
            raise KeyError(
                f"no convergence curves for cell ({algorithm}, {kernel}, "
                f"{arch}, {sample_size})"
            )
        length = max(len(c) for c in curves)
        out = np.empty((len(curves), length), dtype=np.float64)
        for i, curve in enumerate(curves):
            out[i, : len(curve)] = curve
            out[i, len(curve):] = curve[-1]
        return out

    def convergence_stats(
        self, algorithm: str, kernel: str, arch: str, sample_size: int
    ) -> Dict[str, np.ndarray]:
        """Median and IQR of the cell's best-so-far curves, per index.

        ``inf`` entries (all samples failed so far) are excluded from the
        quantiles; indices where *every* experiment is still at ``inf``
        come back as ``nan``.
        """
        curves = self.convergence_curves(algorithm, kernel, arch, sample_size)
        masked = np.where(np.isfinite(curves), curves, np.nan)
        with warnings.catch_warnings():
            # All-NaN slices (every run still failing at index i) are a
            # legitimate state, not a numeric accident.
            warnings.simplefilter("ignore", category=RuntimeWarning)
            return {
                "median": np.nanmedian(masked, axis=0),
                "q1": np.nanpercentile(masked, 25, axis=0),
                "q3": np.nanpercentile(masked, 75, axis=0),
                "n": np.sum(np.isfinite(masked), axis=0),
            }

    def optimum_for(self, kernel: str, arch: str) -> float:
        try:
            return self.optima[(kernel, arch)]
        except KeyError:
            raise KeyError(
                f"no optimum recorded for ({kernel}, {arch}); run the study "
                f"with optima enabled"
            ) from None

    # -- derived metrics ------------------------------------------------------------
    def percent_of_optimum(
        self, algorithm: str, kernel: str, arch: str, sample_size: int
    ) -> np.ndarray:
        """Per-experiment percentage of the landscape's true optimum."""
        pop = self.population(algorithm, kernel, arch, sample_size)
        opt = self.optimum_for(kernel, arch)
        return 100.0 * opt / pop

    def median_percent_of_optimum(
        self, algorithm: str, kernel: str, arch: str, sample_size: int
    ) -> float:
        """The Fig. 2 heatmap value: median % of optimum for one cell."""
        return float(np.median(
            self.percent_of_optimum(algorithm, kernel, arch, sample_size)
        ))

    def speedup_over(
        self,
        algorithm: str,
        baseline: str,
        kernel: str,
        arch: str,
        sample_size: int,
    ) -> float:
        """Median-runtime ratio baseline/algorithm (> 1: algorithm wins)."""
        alg = self.population(algorithm, kernel, arch, sample_size)
        base = self.population(baseline, kernel, arch, sample_size)
        return float(np.median(base) / np.median(alg))

    def cles_over(
        self,
        algorithm: str,
        baseline: str,
        kernel: str,
        arch: str,
        sample_size: int,
    ) -> float:
        """P(algorithm run beats baseline run) — the Fig. 4b value."""
        alg = self.population(algorithm, kernel, arch, sample_size)
        base = self.population(baseline, kernel, arch, sample_size)
        return cles_smaller(alg, base)

    # -- persistence -----------------------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "metadata": self.metadata,
            "optima": [
                {"kernel": k, "arch": a, "runtime_ms": v}
                for (k, a), v in self.optima.items()
            ],
            "results": [r.to_dict() for r in self._results],
        }
        return json.dumps(doc)

    def save(self, path) -> None:
        atomic_write_text(path, self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "StudyResults":
        doc = json.loads(text)
        results = [ExperimentResult(**r) for r in doc.get("results", [])]
        optima = {
            (o["kernel"], o["arch"]): float(o["runtime_ms"])
            for o in doc.get("optima", [])
        }
        return cls(results=results, optima=optima,
                   metadata=doc.get("metadata", {}))

    @classmethod
    def load(cls, path) -> "StudyResults":
        return cls.from_json(Path(path).read_text())
