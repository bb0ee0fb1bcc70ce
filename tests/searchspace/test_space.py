"""Unit and property tests for SearchSpace encodings and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.searchspace import (
    CategoricalParameter,
    IntegerParameter,
    PredicateConstraint,
    PAPER_SPACE_SIZE,
    SearchSpace,
    paper_search_space,
    workgroup_product_limit,
)


@pytest.fixture
def small_space():
    return SearchSpace(
        [
            IntegerParameter("a", 1, 3),
            IntegerParameter("b", 0, 1),
            IntegerParameter("c", 2, 5),
        ]
    )


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(
                [IntegerParameter("a", 1, 2), IntegerParameter("a", 1, 3)]
            )

    def test_constraint_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace(
                [IntegerParameter("a", 1, 2)],
                [workgroup_product_limit(("a", "zz"), 4)],
            )

    def test_size(self, small_space):
        assert small_space.size == 3 * 2 * 4
        assert len(small_space) == 24

    def test_paper_space_size(self):
        assert paper_search_space().size == PAPER_SPACE_SIZE == 2_097_152

    def test_paper_space_parameters(self):
        space = paper_search_space()
        assert space.names == [
            "thread_x", "thread_y", "thread_z", "wg_x", "wg_y", "wg_z",
        ]
        for name in ("thread_x", "thread_y", "thread_z"):
            assert space.parameter(name).cardinality == 16
        for name in ("wg_x", "wg_y", "wg_z"):
            assert space.parameter(name).cardinality == 8

    def test_parameter_lookup_missing(self, small_space):
        with pytest.raises(KeyError):
            small_space.parameter("zzz")


class TestEncodings:
    def test_flat_roundtrip_exhaustive(self, small_space):
        seen = set()
        for flat in range(small_space.size):
            cfg = small_space.flat_to_config(flat)
            assert small_space.config_to_flat(cfg) == flat
            seen.add(tuple(sorted(cfg.items())))
        assert len(seen) == small_space.size  # bijective

    def test_indices_roundtrip(self, small_space):
        idx = np.array([2, 1, 3])
        cfg = small_space.indices_to_config(idx)
        assert cfg == {"a": 3, "b": 1, "c": 5}
        np.testing.assert_array_equal(
            small_space.config_to_indices(cfg), idx
        )

    def test_flat_out_of_range(self, small_space):
        with pytest.raises(ValueError):
            small_space.flat_to_indices(-1)
        with pytest.raises(ValueError):
            small_space.flat_to_indices(small_space.size)

    def test_indices_out_of_range(self, small_space):
        with pytest.raises(ValueError):
            small_space.indices_to_flat([3, 0, 0])

    def test_wrong_dimension_count(self, small_space):
        with pytest.raises(ValueError):
            small_space.indices_to_config([0, 0])

    def test_flats_to_index_matrix_matches_scalar(self, small_space):
        flats = np.arange(small_space.size)
        mat = small_space.flats_to_index_matrix(flats)
        for f in [0, 7, 23]:
            np.testing.assert_array_equal(
                mat[f], small_space.flat_to_indices(f)
            )

    def test_places_encode_like_index_matrix(self, small_space):
        places = small_space.places()
        assert all(type(p) is int for p in places)
        mat = small_space.flats_to_index_matrix(np.arange(small_space.size))
        assert [
            sum(i * p for i, p in zip(row, places)) for row in mat.tolist()
        ] == list(range(small_space.size))

    def test_flats_to_values_decodes_values_not_features(self):
        """Rows carry parameter values; a categorical's feature is its
        ordinal index, which the GPU simulator must never see."""
        space = SearchSpace([
            IntegerParameter("a", 3, 5),
            CategoricalParameter("b", choices=(8, 1, 4)),
        ])
        flats = np.arange(space.size)
        values = space.flats_to_values(flats)
        assert values.dtype == np.int64
        assert values.tolist() == [
            [c["a"], c["b"]] for c in space.flats_to_configs(flats)
        ]
        features = space.index_matrix_to_features(
            space.flats_to_index_matrix(flats)
        )
        assert (features[:, 1] != values[:, 1]).any()

    def test_validate_config(self, small_space):
        small_space.validate_config({"a": 1, "b": 0, "c": 2})
        with pytest.raises(KeyError):
            small_space.validate_config({"a": 1, "b": 0})
        with pytest.raises(KeyError):
            small_space.validate_config({"a": 1, "b": 0, "c": 2, "d": 1})
        with pytest.raises(ValueError):
            small_space.validate_config({"a": 99, "b": 0, "c": 2})

    @given(st.integers(0, PAPER_SPACE_SIZE - 1))
    @settings(max_examples=60)
    def test_paper_space_flat_roundtrip(self, flat):
        space = paper_search_space()
        assert space.config_to_flat(space.flat_to_config(flat)) == flat


class TestFeatures:
    def test_to_features_shape_and_values(self, small_space):
        cfgs = [{"a": 1, "b": 0, "c": 2}, {"a": 3, "b": 1, "c": 5}]
        feats = small_space.to_features(cfgs)
        np.testing.assert_array_equal(
            feats, [[1.0, 0.0, 2.0], [3.0, 1.0, 5.0]]
        )

    def test_index_matrix_to_features(self, small_space):
        idx = np.array([[0, 0, 0], [2, 1, 3]])
        feats = small_space.index_matrix_to_features(idx)
        np.testing.assert_array_equal(
            feats, [[1.0, 0.0, 2.0], [3.0, 1.0, 5.0]]
        )


class TestConstraints:
    def test_paper_constraint_accepts_256(self):
        space = paper_search_space()
        cfg = space.flat_to_config(0)
        cfg.update({"wg_x": 8, "wg_y": 8, "wg_z": 4})
        assert space.is_feasible(cfg)

    def test_paper_constraint_rejects_512(self):
        space = paper_search_space()
        cfg = space.flat_to_config(0)
        cfg.update({"wg_x": 8, "wg_y": 8, "wg_z": 8})
        assert not space.is_feasible(cfg)

    def test_unconstrained_variant(self):
        space = paper_search_space(constrained=False)
        cfg = space.flat_to_config(0)
        cfg.update({"wg_x": 8, "wg_y": 8, "wg_z": 8})
        assert space.is_feasible(cfg)

    def test_without_constraints(self):
        space = paper_search_space()
        assert len(space.without_constraints().constraints) == 0
        # original untouched
        assert len(space.constraints) == 1

    def test_with_constraints_extends(self, small_space):
        limited = small_space.with_constraints(
            workgroup_product_limit(("a", "c"), 6)
        )
        assert limited.is_feasible({"a": 1, "b": 0, "c": 5})
        assert not limited.is_feasible({"a": 3, "b": 0, "c": 5})


class TestFeasibleMask:
    def test_matches_per_row_checks_paper_space(self):
        space = paper_search_space()
        flats = np.random.default_rng(0).integers(0, space.size, 2000)
        mask = space.feasible_mask(flats)
        expected = np.array(
            [space.is_feasible(space.flat_to_config(int(f))) for f in flats]
        )
        np.testing.assert_array_equal(mask, expected)
        assert 0 < mask.sum() < mask.size  # both classes exercised

    def test_unconstrained_all_true(self, small_space):
        mask = small_space.feasible_mask(np.arange(small_space.size))
        assert mask.all()

    def test_empty_input(self):
        space = paper_search_space()
        assert space.feasible_mask(np.array([], dtype=np.int64)).shape == (0,)

    def test_predicate_constraint_falls_back_per_row(self, small_space):
        from repro.searchspace import PredicateConstraint

        calls = []

        def odd_sum(cfg):
            calls.append(dict(cfg))
            return (cfg["a"] + cfg["c"]) % 2 == 1

        limited = small_space.with_constraints(
            workgroup_product_limit(("a", "c"), 6),
            PredicateConstraint(odd_sum, name="odd-sum"),
        )
        flats = np.arange(limited.size)
        mask = limited.feasible_mask(flats)
        mask_calls = len(calls)
        expected = np.array(
            [limited.is_feasible(limited.flat_to_config(int(f)))
             for f in flats]
        )
        np.testing.assert_array_equal(mask, expected)
        # The predicate only ran on rows the vectorized product
        # constraint accepted.
        assert mask_calls == int(
            limited.without_constraints()
            .with_constraints(workgroup_product_limit(("a", "c"), 6))
            .feasible_mask(flats)
            .sum()
        )

    def test_product_prefix_semantics_with_zero(self):
        # Scalar rejection happens on a running prefix: (a*b) may exceed
        # the limit even when a later zero pulls the product back under.
        from repro.searchspace.constraints import ProductLimitConstraint

        space = SearchSpace(
            [IntegerParameter("a", 0, 9), IntegerParameter("b", 0, 9)],
            [ProductLimitConstraint(parameter_names=("a", "b"), limit=8)],
        )
        flats = np.arange(space.size)
        expected = np.array(
            [space.is_feasible(space.flat_to_config(int(f))) for f in flats]
        )
        np.testing.assert_array_equal(space.feasible_mask(flats), expected)


class TestSampling:
    def test_sample_feasible_only(self):
        space = paper_search_space()
        rng = np.random.default_rng(0)
        for cfg in space.sample(rng, 100, feasible_only=True):
            assert space.is_feasible(cfg)

    def test_sample_unconstrained_hits_infeasible_eventually(self):
        space = paper_search_space()
        rng = np.random.default_rng(0)
        cfgs = space.sample(rng, 2000, feasible_only=False)
        assert any(not space.is_feasible(c) for c in cfgs)

    def test_sample_reproducible(self):
        space = paper_search_space()
        a = space.sample(np.random.default_rng(3), 10)
        b = space.sample(np.random.default_rng(3), 10)
        assert a == b

    def test_sample_flat_feasible(self):
        space = paper_search_space()
        rng = np.random.default_rng(1)
        flats = space.sample_flat(rng, 500, feasible_only=True)
        assert flats.shape == (500,)
        for f in flats[:50]:
            assert space.is_feasible(space.flat_to_config(int(f)))

    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(0, 40),
        sparse=st.booleans(),
        feasible=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_sample_matches_per_parameter_draws(self, seed, n, sparse,
                                                feasible):
        """Vectorised sampling returns what drawing one ``Parameter.sample``
        per parameter per candidate would, and leaves the generator in the
        same state: tuners sample mid-stream."""
        space = paper_search_space()
        if sparse:  # a predicate without a vectorised form; ~1 in 4 pass
            space = SearchSpace(
                [IntegerParameter("a", 0, 9),
                 CategoricalParameter("kind", ("x", "y", "z")),
                 IntegerParameter("b", 1, 4)],
                [PredicateConstraint(
                    lambda c: c["a"] + c["b"] >= 11 or c["kind"] == "z",
                    parameter_names=("a", "b", "kind"),
                )],
            )
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = []
        while len(expected) < n:
            cfg = {p.name: p.sample(slow) for p in space.parameters}
            if not feasible or space.is_feasible(cfg):
                expected.append(cfg)
        got = space.sample(fast, n, feasible_only=feasible)
        assert got == expected
        assert [[type(v) for v in c.values()] for c in got] == [
            [type(v) for v in c.values()] for c in expected
        ]
        assert fast.integers(2**62) == slow.integers(2**62)

    def test_unsatisfiable_constraint_raises(self, small_space):
        impossible = small_space.with_constraints(
            workgroup_product_limit(("a", "c"), 1)
        )
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            impossible.sample(rng, 1, feasible_only=True, max_rejections=50)


class TestEnumeration:
    def test_enumerate_matches_size(self, small_space):
        assert sum(1 for _ in small_space.enumerate()) == small_space.size

    def test_enumerate_feasible_subset(self, small_space):
        limited = small_space.with_constraints(
            workgroup_product_limit(("a", "c"), 6)
        )
        feasible = list(limited.enumerate_feasible())
        assert 0 < len(feasible) < limited.size
        assert all(limited.is_feasible(c) for c in feasible)
        assert len(feasible) == sum(
            1
            for a in (1, 2, 3)
            for b in (0, 1)
            for c in (2, 3, 4, 5)
            if a * c <= 6
        )
