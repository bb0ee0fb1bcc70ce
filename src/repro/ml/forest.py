"""Random Forest regression (Breiman 2001), from scratch.

The paper's RF tuner uses sk-learn's ``RandomForestRegressor``
(Section VI-B); this is the same algorithm: an ensemble of CART trees,
each fit on a bootstrap resample of the data with per-node random feature
subsetting, predictions averaged (*bagging* + random subspaces — exactly
the combination Section III-A describes).  All trees grow in one
level-synchronous pass of :func:`repro.ml.tree.grow`.

Defaults mirror sk-learn's: 100 trees, unbounded depth,
``max_features=1.0`` (all features — sk-learn's regression default),
bootstrap on.  Out-of-bag scoring is provided for diagnostics.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .tree import DecisionTreeRegressor, check_xy

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bagged ensemble of CART regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        As for :class:`~repro.ml.tree.DecisionTreeRegressor`.
    bootstrap:
        Fit each tree on an n-out-of-n resample with replacement.
    rng:
        Source of all randomness (bootstraps + feature subsets).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=1.0,
        bootstrap: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.rng = rng if rng is not None else np.random.default_rng()
        self._trees: List[DecisionTreeRegressor] = []

    @property
    def trees(self) -> List[DecisionTreeRegressor]:
        return self._trees

    @property
    def is_fitted(self) -> bool:
        return len(self._trees) > 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_xy(X, y)
        n = X.shape[0]
        # One bootstrap draw per tree, in tree order: the generator stream
        # the forest (and everything drawn after it) depends on.
        self._samples = np.stack([
            self.rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            for _ in range(self.n_estimators)
        ])
        grower = DecisionTreeRegressor(
            self.max_depth, self.min_samples_split, self.min_samples_leaf,
            self.max_features, self.rng,
        )
        self._nodes = grower._grow(X, y, self._samples)
        self._trees = [grower._for_tree(t) for t in range(self.n_estimators)]
        self._X_train, self._y_train = X, y
        return self

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(n_trees, n)`` per-tree predictions."""
        if not self._trees:
            raise RuntimeError("forest is not fitted; call fit() first")
        X = self._trees[0]._check_X(X)
        return self._nodes.leaf_values(X, np.arange(len(self._trees)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction across trees."""
        return self._leaf_values(X).sum(axis=0) / len(self._trees)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Across-tree standard deviation (ensemble disagreement)."""
        return self._leaf_values(X).std(axis=0)

    def oob_score(self) -> float:
        """Out-of-bag R^2 (requires ``bootstrap=True`` and enough trees).

        Samples never left out by any bootstrap are skipped; returns NaN if
        no sample has an OOB prediction.
        """
        if not self._trees:
            raise RuntimeError("forest is not fitted; call fit() first")
        if not self.bootstrap:
            raise ValueError("OOB score requires bootstrap=True")
        n = self._X_train.shape[0]
        sums, counts = np.zeros(n), np.zeros(n)
        for pred, sample in zip(self._leaf_values(self._X_train), self._samples):
            oob = np.setdiff1d(np.arange(n), sample)
            sums[oob] += pred[oob]
            counts[oob] += 1
        mask = counts > 0
        if not mask.any():
            return float("nan")
        pred = sums[mask] / counts[mask]
        resid = self._y_train[mask] - pred
        total = self._y_train[mask] - self._y_train[mask].mean()
        denom = float((total**2).sum())
        if denom == 0.0:
            return float("nan")
        return 1.0 - float((resid**2).sum()) / denom
