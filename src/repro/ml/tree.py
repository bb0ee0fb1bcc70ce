"""CART regression trees (the paper's sk-learn RF substrate), from scratch.

Splits minimize the children's summed squared error at CART's thresholds
(midpoints between consecutive unique values of the tree's training rows),
optionally over a random feature subset per node (``max_features``).
:func:`grow` fits all trees of a forest together, one depth level at a
time: per level, one segmented ``bincount`` + row-wise ``cumsum`` scores
every open node's splits, in blocks of at most ``_BLOCK_CELLS`` node-bins.
A :class:`DecisionTreeRegressor` is the one-tree case.  Results equal the
textbook one-node-at-a-time computation bit for bit: per-bin sums run in
ascending sample order, a feature's left sums are the node's running total
minus the total before the feature's first bin, node totals are NumPy's
pairwise sums, and partitions are stable (``tests/ml/test_bit_identity.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["DecisionTreeRegressor"]

_LEAF = -1
#: Node-bins per split-search block: bounds the per-level work arrays.
_BLOCK_CELLS = 1 << 17
#: (row, tree) pairs per prediction pass: keeps the trees' nodes in cache.
_DESCENT_CELLS = 1 << 15


def check_xy(X, y) -> tuple:
    """Validate and convert a training set."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match X {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.all(np.isfinite(y)):
        raise ValueError("y contains non-finite values; penalize "
                         "failed measurements before model fitting")
    return X, y


@dataclass(frozen=True)
class _Nodes:
    """Fitted trees as flat node arrays, numbered level by level: split node
    ``i`` sends rows with ``X[:, feature[i]] <= threshold[i]`` to node
    ``left[i]`` and the others to ``left[i] + 1``; leaves have ``feature ==
    _LEAF``.  Tree ``t`` is rooted at node ``t``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    depth: np.ndarray
    tree: np.ndarray

    def leaf_values(self, X: np.ndarray, trees: np.ndarray) -> np.ndarray:
        """``(len(trees), n)`` values of the leaves the rows of X reach."""
        m, d = X.shape
        out = np.empty(trees.size * m)
        flat_X = X.ravel()
        group = max(1, _DESCENT_CELLS // max(m, 1))
        for lo in range(0, trees.size, group):
            node = np.repeat(trees[lo:lo + group], m)
            at = np.arange(lo * m, lo * m + node.size)
            row = np.tile(np.arange(0, m * d, d), node.size // max(m, 1))
            while node.size:
                feature = self.feature.take(node)
                leaf = feature == _LEAF
                if leaf.any():
                    out[at[leaf]] = self.value.take(node[leaf])
                    node, at, row, feature = (
                        a[~leaf] for a in (node, at, row, feature))
                x = flat_X.take(row + feature)
                node = self.left.take(node) + ~(x <= self.threshold.take(node))
        return out.reshape(trees.size, m)


def _bin_trees(X: np.ndarray, samples: np.ndarray) -> tuple:
    """Bins shared by all trees: an empty bin 0, then every column's sorted
    unique values.  Returns each tree-sample's bin per column; per bin, its
    column and the bin before the column's first; and per tree and bin, the
    threshold to the tree's next value and whether a split may follow (bins
    a tree lacks only repeat running totals, so they are never split at)."""
    n_trees, m = samples.shape
    tree_of = np.repeat(np.arange(n_trees), m)
    codes, feature, before, threshold, splittable = [], [], [], [], []
    offset = 1
    for f in range(X.shape[1]):
        uniques, inverse = np.unique(X[:, f], return_inverse=True)
        code = inverse.ravel()[samples.ravel()]
        u = uniques.size
        seen = np.zeros((n_trees, u), dtype=bool)
        seen[tree_of, code] = True
        # Per tree, the first unique at or after each index (u: none) ...
        first = np.where(seen, np.arange(u), u)[:, ::-1]
        first = np.minimum.accumulate(first, axis=1)
        # ... shifted to the next one strictly after it.
        after = np.full((n_trees, u), u)
        after[:, :-1] = first[:, -2::-1]
        codes.append(code + offset)
        feature.append(np.full(u, f))
        before.append(np.full(u, offset - 1))
        threshold.append(0.5 * (uniques + np.append(uniques, np.inf)[after]))
        splittable.append(seen & (after < u))
        offset += u
    pad = np.zeros((n_trees, 1))
    return (np.column_stack(codes), np.concatenate([[0], *feature]),
            np.concatenate([[0], *before]), np.hstack([pad, *threshold]),
            np.hstack([pad.astype(bool), *splittable]))


def _node_sums(y_nodes: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
    """Per node: sums of y and y*y, and whether y is constant.  Nodes of
    equal size are the rows of one matrix, whose row sums are NumPy's
    pairwise sums of each node's targets."""
    tot_s, tot_q = np.empty(sizes.size), np.empty(sizes.size)
    flat = np.empty(sizes.size, dtype=bool)
    for size in np.unique(sizes).tolist():
        nodes = np.flatnonzero(sizes == size)
        block = y_nodes[starts[nodes, None] + np.arange(size)]
        tot_s[nodes] = block.sum(axis=1)
        tot_q[nodes] = (block * block).sum(axis=1)
        flat[nodes] = block.max(axis=1) == block.min(axis=1)
    return tot_s, tot_q, flat


def grow(X, y, samples, max_depth=None, min_samples_split=2,
         min_samples_leaf=1, k=None, rng=None) -> _Nodes:
    """Fit one CART tree per row of ``samples`` (the rows of ``X``/``y``
    each tree trains on).  With ``k < d`` features per split, subsets are
    drawn from ``rng`` node by node in level order: every tree's root,
    then every depth-1 node, and so on."""
    (n_trees, m), d = samples.shape, X.shape[1]
    k = d if k is None else k
    codes, bin_feature, before, thresholds, splittable = _bin_trees(X, samples)
    width = bin_feature.size
    step = max(1, _BLOCK_CELLS // width)
    X_s, y_s = X[samples.ravel()], y[samples.ravel()]

    rows = np.arange(n_trees * m)  # tree-samples, grouped by node
    sizes = np.full(n_trees, m)
    node_tree = np.arange(n_trees)
    first_id, depth, levels = 0, 0, []
    while sizes.size:
        count = sizes.size
        starts = np.cumsum(sizes) - sizes
        y_nodes = y_s[rows]
        tot_s, tot_q, flat = _node_sums(y_nodes, starts, sizes)
        feature, threshold = np.full(count, _LEAF), np.zeros(count)
        growing = max_depth is None or depth < max_depth
        open_nodes = np.flatnonzero(growing & (sizes >= min_samples_split) & ~flat)
        for lo in range(0, open_nodes.size, step):
            # Count / sum / sum of squares per (node, bin), accumulated to
            # the left-side statistics of every candidate split.
            nodes = open_nodes[lo:lo + step]
            c, n, t = nodes.size, sizes[nodes], node_tree[nodes]
            pos = np.arange(n.sum()) + np.repeat(starts[nodes] - np.cumsum(n) + n, n)
            cells = (np.repeat(np.arange(c) * width, n)[:, None]
                     + codes[rows[pos]]).ravel()
            y_rep = np.repeat(y_nodes[pos], d)
            cc, cs, cq = (
                np.bincount(cells, weights=w, minlength=c * width)
                .reshape(c, width).cumsum(axis=1)
                for w in (None, y_rep, y_rep * y_rep)
            )
            base = (np.arange(c) * width)[:, None] + before
            left_n = (cc - cc.take(base)).astype(np.float64)
            left_s, left_q = cs - cs.take(base), cq - cq.take(base)
            right_n = n[:, None] - left_n
            valid = (splittable[t] & (left_n >= min_samples_leaf)
                     & (right_n >= min_samples_leaf))
            if k < d:
                chosen = np.zeros((c, d), dtype=bool)
                for i in range(c):
                    chosen[i, rng.choice(d, size=k, replace=False)] = True
                valid &= chosen[:, bin_feature]
            s, q = tot_s[nodes, None], tot_q[nodes, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                sse = ((left_q - left_s**2 / left_n)
                       + ((q - left_q) - (s - left_s) ** 2 / right_n))
            sse = np.where(valid, sse, np.inf)
            j = sse.argmin(axis=1)
            found = np.isfinite(sse[np.arange(c), j])
            feature[nodes] = np.where(found, bin_feature[j], _LEAF)
            threshold[nodes] = thresholds[t, j]

        # Stable partition of each split node's rows into its children; a
        # split sending every row one way (a numeric edge case) stays a leaf.
        owner = np.repeat(np.arange(count), sizes)
        go_right = ~(X_s[rows, feature[owner]] <= threshold[owner])
        n_right = np.bincount(owner, weights=go_right, minlength=count)
        feature[(n_right == 0) | (n_right == sizes)] = _LEAF
        moving = feature[owner] != _LEAF
        rows, owner, go_right = rows[moving], owner[moving], go_right[moving]
        split = feature != _LEAF
        rank = np.cumsum(split) - 1
        next_id = first_id + count
        levels.append((
            feature, threshold, np.where(split, next_id + 2 * rank, _LEAF),
            tot_s / sizes, np.full(count, depth), node_tree,
        ))
        child = 2 * rank[owner] + go_right
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * int(split.sum()))
        node_tree = np.repeat(node_tree[split], 2)
        first_id, depth = next_id, depth + 1
    return _Nodes(*(np.concatenate(column) for column in zip(*levels)))


class DecisionTreeRegressor:
    """A CART regression tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` = unbounded).
    min_samples_split:
        Minimum samples a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum samples in each child.
    max_features:
        Features examined per split: ``None`` (all), an int, a float
        fraction, or ``"sqrt"`` (Breiman's forest default).  Subsets are
        drawn node by node in level order (see :func:`grow`).
    rng:
        Generator used for feature subsetting; required when
        ``max_features`` restricts the candidate set.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features=None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self._nodes: Optional[_Nodes] = None
        self._tree = 0
        self._n_features = 0

    # -- fitting -------------------------------------------------------------
    def _n_candidate_features(self, d: int) -> int:
        mf = self.max_features
        if mf is None:
            return d
        if mf == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(round(mf * d)))
        k = int(mf)
        if not 1 <= k <= d:
            raise ValueError(f"max_features {mf!r} out of range for {d} features")
        return k

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_xy(X, y)
        self._grow(X, y, np.arange(X.shape[0])[None, :])
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, samples: np.ndarray) -> _Nodes:
        """Grow a tree per row of ``samples``; :meth:`_for_tree` views them."""
        d = self._n_features = X.shape[1]
        k = self._n_candidate_features(d)
        if k < d and self.rng is None:
            self.rng = np.random.default_rng()
        self._nodes = grow(X, y, samples, self.max_depth,
                           self.min_samples_split, self.min_samples_leaf,
                           k, self.rng)
        self._tree = 0
        return self._nodes

    def _for_tree(self, tree: int) -> "DecisionTreeRegressor":
        view = copy.copy(self)
        view._tree = tree
        return view

    # -- prediction -----------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._nodes is not None

    @property
    def node_count(self) -> int:
        nodes = self._nodes
        return 0 if nodes is None else int(np.sum(nodes.tree == self._tree))

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree (0 = a single leaf)."""
        if self._nodes is None:
            raise RuntimeError("tree is not fitted")
        return int(self._nodes.depth[self._nodes.tree == self._tree].max())

    def _check_X(self, X: np.ndarray) -> np.ndarray:
        if self._nodes is None:
            raise RuntimeError("tree is not fitted; call fit() first")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise ValueError(
                f"X must be (n, {self._n_features}), got shape {X.shape}"
            )
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted values, shape ``(n,)``; vectorized descent."""
        X = self._check_X(X)
        return self._nodes.leaf_values(X, np.array([self._tree]))[0]
