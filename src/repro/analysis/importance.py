"""Parameter-importance analysis (fANOVA-style, forest-based).

Which tuning parameters actually matter on a given (kernel,
architecture) landscape?  The standard tool is Hutter et al.'s fANOVA;
this is the light-weight forest-based variant: fit the from-scratch
random forest on a landscape sample, then attribute variance to
parameters two ways:

* **impurity importance** — total SSE reduction contributed by each
  parameter's splits (weighted by node size), normalized;
* **permutation importance** — the increase in out-of-sample error when
  one feature column is shuffled, normalized.

The suite's physics make the expected answers obvious (e.g. the
work-group x-dimension dominates memory-bound kernels; ``thread_z`` is
dead on 2-D images), which is both a useful user-facing analysis and a
strong end-to-end test of the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..gpu.arch import GpuArchitecture
from ..gpu.simulator import simulate_runtimes
from ..gpu.workload import WorkloadProfile
from ..ml import RandomForestRegressor
from ..searchspace import SearchSpace

__all__ = ["ParameterImportance", "parameter_importance"]


@dataclass(frozen=True)
class ParameterImportance:
    """Normalized importances per parameter (both sum to 1)."""

    impurity: Dict[str, float]
    permutation: Dict[str, float]

    def ranking(self) -> List[str]:
        """Parameters from most to least important (permutation-based)."""
        return sorted(self.permutation, key=self.permutation.get,
                      reverse=True)

    def describe(self) -> str:
        return " > ".join(
            f"{name} ({self.permutation[name]:.0%})"
            for name in self.ranking()
        )


def _impurity_importance(forest: RandomForestRegressor, d: int) -> np.ndarray:
    """Split-gain attribution summed over all trees."""
    nodes = forest._nodes
    split = np.flatnonzero(nodes.feature >= 0)
    left = nodes.left[split]
    right = left + 1
    # Parent SSE minus children SSE approximated via the variance
    # decomposition weighted by sample counts.
    value = nodes.value[split]
    between = (
        nodes.n_samples[left] * (nodes.value[left] - value) ** 2
        + nodes.n_samples[right] * (nodes.value[right] - value) ** 2
    )
    gains = np.bincount(nodes.feature[split], weights=between, minlength=d)
    total = gains.sum()
    return gains / total if total > 0 else np.full(d, 1.0 / d)


def parameter_importance(
    profile: WorkloadProfile,
    arch: GpuArchitecture,
    space: SearchSpace,
    n_samples: int = 2048,
    n_estimators: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> ParameterImportance:
    """Fit a forest to a landscape sample and attribute runtime variance.

    Launch failures are excluded (they would attribute all variance to
    the work-group product); the analysis describes the *feasible*
    landscape.
    """
    rng = rng or np.random.default_rng(0)
    flats = space.sample_flat(rng, n_samples, feasible_only=True)
    idx = space.flats_to_index_matrix(flats)
    X = space.index_matrix_to_features(idx)
    runtimes = simulate_runtimes(
        profile, arch, X.astype(np.int64)
    ).runtime_ms
    finite = np.isfinite(runtimes)
    X, y = X[finite], np.log(runtimes[finite])
    if y.size < 50:
        raise ValueError("not enough feasible samples for importance")

    split = int(0.8 * y.size)
    forest = RandomForestRegressor(n_estimators=n_estimators, rng=rng)
    forest.fit(X[:split], y[:split])

    d = space.dimensions
    impurity = _impurity_importance(forest, d)

    X_test, y_test = X[split:], y[split:]
    base_err = float(((forest.predict(X_test) - y_test) ** 2).mean())
    increases = np.zeros(d)
    for f in range(d):
        shuffled = X_test.copy()
        shuffled[:, f] = rng.permutation(shuffled[:, f])
        err = float(((forest.predict(shuffled) - y_test) ** 2).mean())
        increases[f] = max(err - base_err, 0.0)
    total = increases.sum()
    permutation = (
        increases / total if total > 0 else np.full(d, 1.0 / d)
    )

    names = space.names
    return ParameterImportance(
        impurity={n: float(v) for n, v in zip(names, impurity)},
        permutation={n: float(v) for n, v in zip(names, permutation)},
    )
