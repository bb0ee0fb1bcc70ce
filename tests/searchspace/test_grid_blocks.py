"""Grid blocks: how the full-space passes tile a search space.

The reference for every block is the per-row decode the passes used
before (flats -> ordinal index matrix -> value matrix), kept here only as
the oracle.
"""

import itertools

import numpy as np
import pytest

from repro.gpu.landscape import BLOCK_ROWS
from repro.searchspace import (
    IntegerParameter,
    PredicateConstraint,
    SearchSpace,
    SumLimitConstraint,
    paper_search_space,
    workgroup_product_limit,
)

MAX_ROWS = (1, 7, 1000, 3000, BLOCK_ROWS, 1 << 18)

SMALL = SearchSpace(
    [
        IntegerParameter("thread_x", 1, 4),
        IntegerParameter("thread_y", 1, 4),
        IntegerParameter("thread_z", 1, 2),
        IntegerParameter("wg_x", 1, 8),
        IntegerParameter("wg_y", 1, 8),
        IntegerParameter("wg_z", 1, 2),
    ]
)
BLOCKED = SearchSpace(
    [
        IntegerParameter("thread_x", 1, 5),
        IntegerParameter("thread_y", 1, 4),
        IntegerParameter("thread_z", 1, 4),
        IntegerParameter("wg_x", 1, 8),
        IntegerParameter("wg_y", 1, 8),
        IntegerParameter("wg_z", 1, 4),
    ]
).with_constraints(workgroup_product_limit(("wg_x", "wg_y", "wg_z"), 64))
PAPER = paper_search_space()
SPACES = {"small": SMALL, "blocked": BLOCKED, "paper": PAPER}

#: Blocks checked on the paper space at block sizes whose full tiling has
#: hundreds of thousands of blocks: enough to cross several ``thread_z``
#: boundaries (every 512 rows).
PAPER_PREFIX_BLOCKS = 2048


def reference_values(space, start, stop):
    """The old per-row decode of flats ``start .. stop - 1``."""
    flats = np.arange(start, stop, dtype=np.int64)
    return space.index_matrix_to_features(
        space.flats_to_index_matrix(flats)
    ).astype(np.int64)


def block_shape(columns):
    return np.broadcast_shapes(*(c.shape for c in columns))


def block_rows(columns):
    """A block's broadcast columns as an ``(n, d)`` row matrix."""
    shape = block_shape(columns)
    return np.column_stack(
        [np.broadcast_to(c, shape).reshape(-1) for c in columns]
    )


def blocks_of(name, max_rows):
    blocks = SPACES[name].grid_blocks(max_rows)
    if name == "paper" and max_rows < 1000:
        return list(itertools.islice(blocks, PAPER_PREFIX_BLOCKS)), False
    return list(blocks), True


@pytest.mark.parametrize("max_rows", MAX_ROWS)
@pytest.mark.parametrize("name", sorted(SPACES))
def test_blocks_tile_flat_order_with_decoded_values(name, max_rows):
    space = SPACES[name]
    blocks, complete = blocks_of(name, max_rows)
    position = checked = 0
    rows = []

    def check_pending():
        # compared in runs of >= 2**16 rows: few comparisons for tiny
        # blocks, bounded memory for the paper space
        nonlocal checked, rows
        np.testing.assert_array_equal(
            np.concatenate(rows), reference_values(space, checked, position)
        )
        checked, rows = position, []

    for start, stop, columns in blocks:
        assert start == position
        assert 0 < stop - start <= max_rows
        assert len(columns) == space.dimensions
        assert all(isinstance(c, np.ndarray) and c.ndim >= 1
                   for c in columns)
        assert int(np.prod(block_shape(columns))) == stop - start
        rows.append(block_rows(columns))
        position = stop
        if position - checked >= 1 << 16:
            check_pending()
    if rows:
        check_pending()
    if complete:
        assert position == space.size


def test_paper_block_fixes_leading_parameters():
    """8,192 rows on the paper space: thread_x and thread_y fixed as
    1-element arrays, a 16 x 8 x 8 x 8 grid of the rest."""
    start, stop, columns = next(PAPER.grid_blocks(BLOCK_ROWS))
    assert (start, stop) == (0, BLOCK_ROWS)
    assert [c.shape for c in columns] == [
        (1,), (1,), (16, 1, 1, 1), (8, 1, 1), (8, 1), (8,)
    ]
    assert sum(1 for _ in PAPER.grid_blocks(BLOCK_ROWS)) == 256


def test_one_block_when_max_rows_covers_the_space():
    blocks = list(SMALL.grid_blocks(SMALL.size + 5))
    assert [(start, stop) for start, stop, _ in blocks] == [(0, SMALL.size)]


@pytest.mark.parametrize("max_rows", [0, -3])
def test_block_size_below_one_rejected(max_rows):
    with pytest.raises(ValueError):
        next(SMALL.grid_blocks(max_rows))


PRODUCT = SMALL.with_constraints(
    workgroup_product_limit(("wg_x", "wg_y", "wg_z"), 32)
)
PREDICATE = PRODUCT.with_constraints(
    PredicateConstraint(
        lambda cfg: (cfg["thread_x"] + cfg["wg_y"]) % 3 != 0,
        name="mod3",
    ),
    SumLimitConstraint(("thread_y", "wg_z"), 5.0),
)


@pytest.mark.parametrize("max_rows", [1, 7, 1000, BLOCK_ROWS])
@pytest.mark.parametrize("space", [SMALL, PRODUCT, PREDICATE],
                         ids=["unconstrained", "product", "predicate"])
def test_feasible_block_matches_feasible_mask(space, max_rows):
    """Broadcast constraint checks (and the per-row fallback of a
    constraint without a vectorized form) give the per-flat mask."""
    masks = []
    for start, stop, columns in space.grid_blocks(max_rows):
        mask = space.feasible_block(start, columns)
        assert mask.shape == (stop - start,)
        masks.append(mask)
    expected = space.feasible_mask(np.arange(space.size, dtype=np.int64))
    assert 0 < np.count_nonzero(expected) < space.size or space is SMALL
    np.testing.assert_array_equal(np.concatenate(masks), expected)


def test_feasible_block_on_paper_space():
    for start, stop, columns in PAPER.grid_blocks(BLOCK_ROWS):
        wg = reference_values(PAPER, start, stop)[:, 3:]
        np.testing.assert_array_equal(
            PAPER.feasible_block(start, columns), wg.prod(axis=1) <= 256
        )
