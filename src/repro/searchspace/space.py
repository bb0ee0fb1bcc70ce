"""The search space: an ordered collection of tunable parameters.

A :class:`SearchSpace` provides the three representations that the rest of
the library moves between:

* **configuration** — ``dict`` mapping parameter name to value; this is what
  kernels and the GPU simulator consume.
* **index vector** — ``np.ndarray`` of per-parameter ordinal indices; this
  is what discrete search algorithms (GA, TPE) manipulate.
* **flat index** — a single integer in ``[0, cardinality)`` obtained by
  mixed-radix encoding; convenient for exhaustive scans, dataset files and
  hashing.

Exhaustive passes skip the per-row representations altogether:
:meth:`SearchSpace.grid_blocks` tiles the flat order into grid-aligned
blocks and hands out each block's values as one broadcastable column per
parameter.

Model-based tuners additionally use :meth:`to_features`, which maps
configurations to a float matrix (ordinal parameters contribute their
numeric value so that surrogate models can exploit ordering).

The paper's six-parameter space is constructed by
:func:`paper_search_space`: thread coarsening ``{X,Y,Z}_t ∈ [1..16]`` and
work-group ``{X,Y,Z}_w ∈ [1..8]``, giving ``16^3 * 8^3 = 2,097,152``
configurations (Section V-C).
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

import numpy as np

from .constraints import Constraint, ConstraintSet, workgroup_product_limit
from .parameter import IntegerParameter, Parameter

__all__ = ["SearchSpace", "paper_search_space", "PAPER_SPACE_SIZE"]

#: |S| from Section V-C of the paper.
PAPER_SPACE_SIZE = 16**3 * 8**3

Configuration = Dict[str, Any]


class SearchSpace:
    """An ordered, immutable cartesian product of parameters.

    Parameters
    ----------
    parameters:
        The tunable parameters, in a fixed order that defines vector and
        flat-index encodings.
    constraints:
        Optional feasibility constraints.  Unless stated otherwise, space
        operations (cardinality, enumeration order, flat indices) refer to
        the *unconstrained* product space; feasibility-aware helpers are
        suffixed or flagged explicitly (``sample(..., feasible_only=True)``,
        :meth:`enumerate_feasible`).
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        constraints: Iterable[Constraint] = (),
    ) -> None:
        if len(parameters) == 0:
            raise ValueError("a search space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self._parameters = tuple(parameters)
        self._by_name = {p.name: p for p in self._parameters}
        self._constraints = (
            constraints
            if isinstance(constraints, ConstraintSet)
            else ConstraintSet(constraints)
        )
        for c in self._constraints:
            for pname in c.parameter_names:
                if pname not in self._by_name:
                    raise ValueError(
                        f"constraint {c.describe()!r} references unknown "
                        f"parameter {pname!r}"
                    )
        cards = np.array([p.cardinality for p in self._parameters], dtype=np.int64)
        self._cardinalities = cards
        # Mixed-radix place values: last parameter varies fastest.
        self._radix = np.concatenate(
            [np.cumprod(cards[::-1])[::-1][1:], np.array([1], dtype=np.int64)]
        )
        self._size = int(np.prod(cards))
        self._places = tuple(zip(self._parameters, self._radix.tolist()))
        # Per-parameter ordinal-index -> feature lookup tables, built once:
        # index_matrix_to_features runs on every tuner iteration and every
        # exhaustive-scan chunk, so rebuilding these inside the call was a
        # measurable hot-path cost.
        self._feature_tables = tuple(
            np.array(
                [p.to_feature(p.value_at(i)) for i in range(p.cardinality)],
                dtype=np.float64,
            )
            for p in self._parameters
        )
        # Per-parameter ordinal-index -> value lookup lists (plain Python
        # values, so vectorized decodes hand out the same dict payloads
        # as flat_to_config): the batched replication engine decodes
        # whole dataset slices at once through these.
        self._value_columns = tuple(
            [p.value_at(i) for i in range(p.cardinality)]
            for p in self._parameters
        )
        # The same values as arrays: the columns feasibility masks and
        # grid blocks are sliced from.
        self._value_arrays = tuple(
            np.asarray(column) for column in self._value_columns
        )
        self._column_of = {p.name: c for c, p in enumerate(self._parameters)}

    # -- basic introspection ------------------------------------------------
    @property
    def parameters(self) -> tuple:
        return self._parameters

    @property
    def names(self) -> List[str]:
        return [p.name for p in self._parameters]

    @property
    def constraints(self) -> ConstraintSet:
        return self._constraints

    @property
    def dimensions(self) -> int:
        return len(self._parameters)

    @property
    def size(self) -> int:
        """Total number of configurations in the unconstrained product."""
        return self._size

    def __len__(self) -> int:
        return self._size

    def parameter(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no parameter named {name!r} in this space") from None

    def places(self) -> List[int]:
        """Per-parameter mixed-radix place values as plain ints: an index
        row's flat index is ``sum(i * place)``."""
        return [place for _, place in self._places]

    # -- representation conversions ------------------------------------------
    def validate_config(self, config: Mapping[str, Any]) -> None:
        """Raise ``ValueError``/``KeyError`` if ``config`` is malformed."""
        missing = set(self._by_name) - set(config)
        if missing:
            raise KeyError(f"configuration missing parameters: {sorted(missing)}")
        extra = set(config) - set(self._by_name)
        if extra:
            raise KeyError(f"configuration has unknown parameters: {sorted(extra)}")
        for p in self._parameters:
            if config[p.name] not in p:
                raise ValueError(
                    f"value {config[p.name]!r} invalid for parameter {p.name!r}"
                )

    def config_to_indices(self, config: Mapping[str, Any]) -> np.ndarray:
        """Configuration dict -> per-parameter ordinal index vector."""
        return np.array(
            [p.index_of(config[p.name]) for p in self._parameters], dtype=np.int64
        )

    def indices_to_config(self, indices: Sequence[int]) -> Configuration:
        """Per-parameter ordinal index vector -> configuration dict."""
        if len(indices) != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions} indices, got {len(indices)}"
            )
        return {
            p.name: p.value_at(int(i)) for p, i in zip(self._parameters, indices)
        }

    def indices_to_flat(self, indices: Sequence[int]) -> int:
        """Index vector -> flat index via mixed-radix encoding."""
        idx = np.asarray(indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self._cardinalities):
            raise ValueError(f"index vector {list(indices)} out of range")
        return int(np.dot(idx, self._radix))

    def flat_to_indices(self, flat: int) -> np.ndarray:
        """Flat index -> index vector (inverse of :meth:`indices_to_flat`)."""
        if not 0 <= flat < self._size:
            raise ValueError(f"flat index {flat} out of range [0, {self._size})")
        out = np.empty(self.dimensions, dtype=np.int64)
        rem = int(flat)
        for i, place in enumerate(self._radix):
            out[i], rem = divmod(rem, int(place))
        return out

    def config_to_flat(self, config: Mapping[str, Any]) -> int:
        # ``index_of`` rejects values outside a parameter, so every
        # index is in range; plain ints keep the encode off NumPy.
        flat = 0
        for p, place in self._places:
            flat += p.index_of(config[p.name]) * place
        return flat

    def flat_to_config(self, flat: int) -> Configuration:
        return self.indices_to_config(self.flat_to_indices(flat))

    def flats_to_index_matrix(self, flats: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`flat_to_indices` for an array of flat indices."""
        flats = np.asarray(flats, dtype=np.int64)
        if flats.size and (flats.min() < 0 or flats.max() >= self._size):
            raise ValueError("flat index out of range")
        out = np.empty((flats.size, self.dimensions), dtype=np.int64)
        rem = flats.copy()
        for i, place in enumerate(self._radix):
            out[:, i], rem = np.divmod(rem, int(place))
        return out

    def index_matrix_to_configs(
        self, indices: np.ndarray
    ) -> List[Configuration]:
        """Vectorized :meth:`indices_to_config` for an ``(n, d)`` matrix.

        The dictionaries carry the exact same (Python-native) values as
        the scalar decode, so histories built from either route compare
        equal.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != self.dimensions:
            raise ValueError(
                f"expected an (n, {self.dimensions}) index matrix, got "
                f"shape {indices.shape}"
            )
        names = [p.name for p in self._parameters]
        columns = [
            [column[i] for i in indices[:, c].tolist()]
            for c, column in enumerate(self._value_columns)
        ]
        return [dict(zip(names, row)) for row in zip(*columns)]

    def flats_to_configs(self, flats: np.ndarray) -> List[Configuration]:
        """Vectorized :meth:`flat_to_config` for an array of flat indices."""
        return self.index_matrix_to_configs(
            self.flats_to_index_matrix(np.asarray(flats, dtype=np.int64))
        )

    def flats_to_values(self, flats: np.ndarray) -> np.ndarray:
        """Flat indices -> ``(n, d)`` int64 matrix of parameter *values*
        (not ordinal indices or features): the GPU simulator's rows."""
        indices = self.flats_to_index_matrix(flats)
        values = np.empty(indices.shape, dtype=np.int64)
        for c, column in enumerate(self._value_arrays):
            values[:, c] = column[indices[:, c]]
        return values

    # -- model features -------------------------------------------------------
    def to_features(self, configs: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Configurations -> ``(n, d)`` float feature matrix for surrogates."""
        feats = np.empty((len(configs), self.dimensions), dtype=np.float64)
        for r, cfg in enumerate(configs):
            for c, p in enumerate(self._parameters):
                feats[r, c] = p.to_feature(cfg[p.name])
        return feats

    def index_matrix_to_features(self, indices: np.ndarray) -> np.ndarray:
        """Index-vector matrix ``(n, d)`` -> feature matrix ``(n, d)``."""
        indices = np.asarray(indices, dtype=np.int64)
        feats = np.empty(indices.shape, dtype=np.float64)
        for c, table in enumerate(self._feature_tables):
            feats[:, c] = table[indices[:, c]]
        return feats

    # -- feasibility ----------------------------------------------------------
    def is_feasible(self, config: Mapping[str, Any]) -> bool:
        return self._constraints.is_satisfied(config)

    def feasible_mask(self, flats: np.ndarray) -> np.ndarray:
        """Vectorized per-row :meth:`is_feasible` for an array of flats.

        Bit-identical to ``is_feasible(flat_to_config(f))`` per row:
        constraints with a vectorized form (:meth:`Constraint.
        satisfied_matrix`) replay the scalar arithmetic column-wise, and
        any constraint without one is evaluated per row — but only on the
        rows every vectorized constraint already accepted.
        """
        flats = np.asarray(flats, dtype=np.int64)
        if len(self._constraints) == 0 or flats.size == 0:
            return np.ones(flats.size, dtype=bool)
        return self._feasible_rows(self.flats_to_index_matrix(flats))

    def _feasible_rows(self, indices: np.ndarray) -> np.ndarray:
        """:meth:`feasible_mask` for the rows of an ``(n, d)`` index matrix."""
        if len(self._constraints) == 0:
            return np.ones(indices.shape[0], dtype=bool)
        if indices.shape[0] < 8:  # too few rows to repay the column set-up
            return np.array([
                self.is_feasible(self.indices_to_config(row))
                for row in indices.tolist()
            ], dtype=bool)
        column_cache: dict = {}

        def column(c: int) -> np.ndarray:
            if c not in column_cache:
                column_cache[c] = self._value_arrays[c][indices[:, c]]
            return column_cache[c]

        return self._constraint_mask(
            (indices.shape[0],), column,
            lambda rows: self.index_matrix_to_configs(indices[rows]),
        )

    def feasible_block(
        self, start: int, columns: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Feasibility of one :meth:`grid_blocks` block, in flat order.

        ``start`` and ``columns`` are a block as :meth:`grid_blocks` yields
        it.  Each constraint's :meth:`Constraint.satisfied_matrix` runs on
        the broadcast columns, so a work-group limit is checked once per
        work-group shape; a constraint without one is checked per row,
        on the rows every other constraint accepted.  Bit-identical to
        :meth:`feasible_mask` over the block's flats.
        """
        shape = np.broadcast_shapes(*(c.shape for c in columns))
        if len(self._constraints) == 0:
            return np.ones(math.prod(shape), dtype=bool)
        return self._constraint_mask(
            shape, lambda c: columns[c],
            lambda rows: self.flats_to_configs(start + rows),
        )

    def _constraint_mask(
        self,
        shape: tuple,
        column: Callable[[int], np.ndarray],
        configs_of: Callable[[np.ndarray], List[Configuration]],
    ) -> np.ndarray:
        """The flat feasibility mask of ``shape`` configurations.

        ``column(c)`` gives parameter ``c``'s values, broadcastable to
        ``shape``; ``configs_of(rows)`` decodes flat row positions to
        configuration dicts for the constraints that have no vectorized
        form.
        """
        mask = np.ones(shape, dtype=bool)
        slow = []
        for constraint in self._constraints:
            sub = None
            try:
                sub = constraint.satisfied_matrix({
                    name: column(self._column_of[name])
                    for name in constraint.parameter_names
                })
            except (TypeError, ValueError):
                sub = None  # non-numeric values etc.: per-row fallback
            if sub is None:
                slow.append(constraint)
            else:
                mask &= sub
        mask = mask.reshape(-1)
        if slow:
            rows = np.nonzero(mask)[0]
            if rows.size:
                for r, cfg in zip(rows, configs_of(rows)):
                    mask[r] = all(c.is_satisfied(cfg) for c in slow)
        return mask

    def with_constraints(self, *more: Constraint) -> "SearchSpace":
        """A copy of this space with additional constraints."""
        return SearchSpace(self._parameters, self._constraints.extended(*more))

    def without_constraints(self) -> "SearchSpace":
        """A copy of this space with all constraints removed."""
        return SearchSpace(self._parameters)

    # -- sampling --------------------------------------------------------------
    def sample(
        self,
        rng: np.random.Generator,
        n: int = 1,
        feasible_only: bool = False,
        max_rejections: int = 10_000,
    ) -> List[Configuration]:
        """Draw ``n`` configurations uniformly at random.

        With ``feasible_only=True``, rejection-samples until ``n`` feasible
        configurations are found (the paper's "constraint specification"
        sampling used for non-SMBO methods).  Sampling *with replacement*:
        duplicates are possible, as in real measurement campaigns.
        """
        return self.index_matrix_to_configs(
            self.sample_indices(rng, n, feasible_only, max_rejections)
        )

    def sample_indices(
        self,
        rng: np.random.Generator,
        n: int = 1,
        feasible_only: bool = False,
        max_rejections: int = 10_000,
    ) -> np.ndarray:
        """:meth:`sample` as an ``(n, d)`` index matrix, without dicts.

        Consumes exactly the generator draws of one ``Parameter.sample``
        per parameter per candidate, in order: each round draws one index
        row for every still-missing configuration, and rejected rows are
        replaced in the next round.
        """
        cards = self._cardinalities
        rounds: List[np.ndarray] = []
        need, rejections = n, 0
        while need > 0:
            # (a one-row draw without ``size`` skips NumPy's broadcast set-up)
            draw = (
                rng.integers(0, cards)[None] if need == 1
                else rng.integers(0, cards, size=(need, cards.size))
            )
            if feasible_only:
                ok = self._feasible_rows(draw)
                rejections += need - int(np.count_nonzero(ok))
                if rejections > max_rejections:
                    raise RuntimeError(
                        f"exceeded {max_rejections} rejections while sampling "
                        f"feasible configurations; constraints may be "
                        f"unsatisfiable: {self._constraints.describe()}"
                    )
                draw = draw[ok]
            rounds.append(draw)
            need -= draw.shape[0]
        if not rounds:
            return np.empty((0, cards.size), dtype=np.int64)
        return np.concatenate(rounds)

    def sample_flat(
        self, rng: np.random.Generator, n: int, feasible_only: bool = False
    ) -> np.ndarray:
        """Like :meth:`sample` but returns flat indices (vectorized fast path)."""
        if not feasible_only or len(self._constraints) == 0:
            return rng.integers(0, self._size, size=n, dtype=np.int64)
        chunks: List[np.ndarray] = []
        need = n
        attempts = 0
        while need > 0:
            attempts += 1
            if attempts > 1000:
                raise RuntimeError("feasible sampling failed to converge")
            cand = rng.integers(0, self._size, size=max(need * 2, 64), dtype=np.int64)
            good = cand[self.feasible_mask(cand)][:need]
            chunks.append(good)
            need -= good.size
        return np.concatenate(chunks)

    def sample_feature_matrix(
        self, rng: np.random.Generator, n: int, feasible_only: bool = False
    ) -> tuple:
        """Vectorized sampling: ``(flats, features)`` for ``n`` draws.

        The fast path for model-based tuners that score large candidate
        pools every iteration — no per-configuration dictionaries are
        built.  ``features`` is the ``(n, d)`` float matrix
        :meth:`to_features` would produce.
        """
        flats = self.sample_flat(rng, n, feasible_only=feasible_only)
        features = self.index_matrix_to_features(
            self.flats_to_index_matrix(flats)
        )
        return flats, features

    # -- full-space passes -------------------------------------------------------
    def grid_blocks(
        self, max_rows: int
    ) -> Iterator[Tuple[int, int, Tuple[np.ndarray, ...]]]:
        """Tile ``[0, size)`` in flat order with grid-aligned blocks.

        Yields ``(start, stop, columns)`` for consecutive blocks of at
        most ``max_rows`` configurations.  A block fixes the leading
        parameters and spans a run of one parameter's indices times every
        trailing parameter in full, so it is a grid: ``columns`` holds one
        value array per parameter, in parameter order, that broadcast
        against each other to the block's shape, and that shape raveled in
        C order is flats ``start .. stop - 1``.  Fixed parameters are
        1-element arrays; on the paper space 8,192 rows fix ``thread_x``
        and ``thread_y`` and span 16 x 8 x 8 x 8.  The spanned run is as
        long as ``max_rows`` allows, so blocks are the largest grids that
        fit (3,000 rows on the paper space give 5 x 8 x 8 x 8 blocks).
        """
        max_rows = int(max_rows)
        if max_rows < 1:
            raise ValueError(f"block size must be >= 1, got {max_rows!r}")
        cards = [int(c) for c in self._cardinalities]
        d = len(cards)
        # The split axis: the outermost one whose trailing axes together
        # fit in max_rows; a block spans ``step`` of its indices.
        axis = d - 1
        while axis > 0 and math.prod(cards[axis:]) <= max_rows:
            axis -= 1
        inner = math.prod(cards[axis + 1:])
        step = min(max_rows // inner, cards[axis])
        trailing = tuple(
            self._value_arrays[c].reshape((-1,) + (1,) * (d - 1 - c))
            for c in range(axis + 1, d)
        )
        split = self._value_arrays[axis]
        start = 0
        for lead in itertools.product(*(range(n) for n in cards[:axis])):
            fixed = tuple(
                self._value_arrays[c][i:i + 1] for c, i in enumerate(lead)
            )
            for j in range(0, cards[axis], step):
                k = min(j + step, cards[axis])
                stop = start + (k - j) * inner
                span = split[j:k]
                if k - j > 1:
                    span = span.reshape((-1,) + (1,) * (d - 1 - axis))
                yield start, stop, fixed + (span,) + trailing
                start = stop

    # -- enumeration -------------------------------------------------------------
    def enumerate(self) -> Iterator[Configuration]:
        """Yield every configuration in flat-index order.

        For the paper's space this is ~2.1 M dictionaries — use the
        vectorized helpers in :mod:`repro.experiments.optimum` for full
        scans instead.
        """
        for flat in range(self._size):
            yield self.flat_to_config(flat)

    def enumerate_feasible(self) -> Iterator[Configuration]:
        """Yield every feasible configuration in flat-index order."""
        for cfg in self.enumerate():
            if self.is_feasible(cfg):
                yield cfg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(
            f"{p.name}[{p.cardinality}]" for p in self._parameters
        )
        return (
            f"SearchSpace({params}; |S|={self._size}; "
            f"constraints={self._constraints.describe()})"
        )


def paper_search_space(constrained: bool = True) -> SearchSpace:
    """The 6-parameter space from Section V-C of the paper.

    Thread coarsening ``thread_{x,y,z} ∈ [1..16]`` and work-group sizes
    ``wg_{x,y,z} ∈ [1..8]``; ``|S| = 2,097,152``.  With
    ``constrained=True`` the work-group product limit
    ``wg_x * wg_y * wg_z <= 256`` is attached (note that with per-dimension
    max 8 the limit only excludes products of 512: e.g. 8*8*8), matching
    the paper's constraint specification.
    """
    params = [
        IntegerParameter("thread_x", 1, 16),
        IntegerParameter("thread_y", 1, 16),
        IntegerParameter("thread_z", 1, 16),
        IntegerParameter("wg_x", 1, 8),
        IntegerParameter("wg_y", 1, 8),
        IntegerParameter("wg_z", 1, 8),
    ]
    constraints = [workgroup_product_limit()] if constrained else []
    return SearchSpace(params, constraints)
