"""Table generators: the paper's Table I row and significance matrices.

Table I surveys experimental designs of prior work; its last row is the
paper's own design, which :func:`table1_row` regenerates from an actual
:class:`~repro.experiments.design.ExperimentDesign` (so a scaled-down run
reports its true scale, not the paper's).

Section VII states "we view all cases statistically significant
(alpha = 0.01) where a given algorithm's median performance differs by
more than 1%"; :func:`significance_matrix` runs that exact pairwise
criterion (MWU + median-delta) over a study's populations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..experiments.design import ExperimentDesign
from ..experiments.results import StudyResults
from ..stats import PAPER_ALPHA, compare_pair
from .figures import algorithm_label

__all__ = ["table1_row", "SignificanceCell", "significance_matrix",
           "render_significance", "variance_table"]


def table1_row(design: ExperimentDesign, final_repeats: int = 10) -> Dict[str, str]:
    """The paper's Table I last row, from an actual design.

    Columns mirror the table: samples / experiments / evaluations,
    significance test, research field, algorithms.
    """
    sizes = design.sample_sizes
    schedule = design.schedule
    return {
        "author": "Tørring (reproduction)",
        "samples": f"{sizes[0]}-{sizes[-1]}",
        "experiments": f"{schedule[sizes[0]]}-{schedule[sizes[-1]]}",
        "evaluations": str(final_repeats),
        "significance_test": "Mann-Whitney U",
        "research_field": "Autotuning",
        "algorithms": "RS, BO TPE, BO GP, RF, GA",
    }


@dataclass(frozen=True)
class SignificanceCell:
    """One pairwise algorithm comparison in one study cell."""

    algorithm_a: str
    algorithm_b: str
    kernel: str
    arch: str
    sample_size: int
    median_speedup: float
    cles: float
    p_value: float
    significant: bool


def significance_matrix(
    results: StudyResults,
    kernel: str,
    arch: str,
    sample_size: int,
    alpha: float = PAPER_ALPHA,
) -> List[SignificanceCell]:
    """All pairwise comparisons for one (kernel, arch, sample size) cell."""
    cells: List[SignificanceCell] = []
    algs = results.algorithms
    for i, a in enumerate(algs):
        for b in algs[i + 1 :]:
            pop_a = results.population(a, kernel, arch, sample_size)
            pop_b = results.population(b, kernel, arch, sample_size)
            cmp = compare_pair(pop_a, pop_b, alpha=alpha)
            cells.append(
                SignificanceCell(
                    algorithm_a=a,
                    algorithm_b=b,
                    kernel=kernel,
                    arch=arch,
                    sample_size=sample_size,
                    median_speedup=cmp.median_speedup,
                    cles=cmp.cles,
                    p_value=cmp.p_value,
                    significant=cmp.significant,
                )
            )
    return cells


def render_significance(cells: List[SignificanceCell]) -> str:
    """Aligned text table of pairwise comparisons."""
    if not cells:
        return "(no comparisons)"
    header = (
        f"{'A':>8s} vs {'B':<8s} {'speedup':>8s} {'CLES':>6s} "
        f"{'p-value':>10s} {'signif':>7s}"
    )
    lines = [
        f"pairwise comparisons: {cells[0].kernel}/{cells[0].arch} "
        f"S={cells[0].sample_size}",
        header,
        "-" * len(header),
    ]
    for c in cells:
        lines.append(
            f"{algorithm_label(c.algorithm_a):>8s} vs "
            f"{algorithm_label(c.algorithm_b):<8s} "
            f"{c.median_speedup:8.3f} {c.cles:6.3f} "
            f"{c.p_value:10.2e} {'yes' if c.significant else 'no':>7s}"
        )
    return "\n".join(lines)


def variance_table(results: StudyResults, algorithm: str) -> Dict[int, float]:
    """Std-dev of final runtimes vs sample size (Section V-B's claim that
    variance decreases with sample size), pooled over all panels as the
    mean of per-cell relative standard deviations."""
    out: Dict[int, float] = {}
    for size in results.sample_sizes:
        rel_stds = []
        for kernel in results.kernels:
            for arch in results.archs:
                pop = results.population(algorithm, kernel, arch, size)
                if pop.size > 1 and pop.mean() > 0:
                    rel_stds.append(float(pop.std(ddof=1) / pop.mean()))
        out[size] = float(np.mean(rel_stds)) if rel_stds else float("nan")
    return out
