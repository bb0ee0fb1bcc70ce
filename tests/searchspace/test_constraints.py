"""Unit tests for constraint specifications."""

from hypothesis import given
from hypothesis import strategies as st

from repro.searchspace import (
    ConstraintSet,
    PredicateConstraint,
    ProductLimitConstraint,
    SumLimitConstraint,
    workgroup_product_limit,
)


class TestProductLimit:
    def test_boundary_inclusive(self):
        c = ProductLimitConstraint(("x", "y"), 12)
        assert c.is_satisfied({"x": 3, "y": 4})
        assert not c.is_satisfied({"x": 3, "y": 5})

    def test_paper_constraint_factory(self):
        c = workgroup_product_limit()
        assert c.limit == 256
        assert c.parameter_names == ("wg_x", "wg_y", "wg_z")
        assert c.is_satisfied({"wg_x": 8, "wg_y": 8, "wg_z": 4})
        assert not c.is_satisfied({"wg_x": 8, "wg_y": 8, "wg_z": 8})

    def test_describe(self):
        c = workgroup_product_limit()
        assert "wg_x * wg_y * wg_z <= 256" == c.describe()

    def test_callable_protocol(self):
        c = ProductLimitConstraint(("x",), 4)
        assert c({"x": 4}) and not c({"x": 5})

    @given(
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)
    )
    def test_matches_direct_product(self, x, y, z):
        c = workgroup_product_limit()
        cfg = {"wg_x": x, "wg_y": y, "wg_z": z}
        assert c.is_satisfied(cfg) == (x * y * z <= 256)


class TestSumLimit:
    def test_boundary(self):
        c = SumLimitConstraint(("a", "b"), 5.0)
        assert c.is_satisfied({"a": 2, "b": 3})
        assert not c.is_satisfied({"a": 3, "b": 3})

    def test_describe(self):
        assert SumLimitConstraint(("a", "b"), 5.0).describe() == "a + b <= 5.0"


class TestPredicate:
    def test_wraps_callable(self):
        c = PredicateConstraint(lambda cfg: cfg["x"] % 2 == 0, name="even-x")
        assert c.is_satisfied({"x": 2})
        assert not c.is_satisfied({"x": 3})
        assert c.describe() == "even-x"


class TestConstraintSet:
    def test_empty_set_accepts_everything(self):
        cs = ConstraintSet()
        assert cs.is_satisfied({"anything": 1})
        assert cs.describe() == "(unconstrained)"

    def test_conjunction(self):
        cs = ConstraintSet(
            [
                ProductLimitConstraint(("x", "y"), 12),
                SumLimitConstraint(("x", "y"), 6.0),
            ]
        )
        assert cs.is_satisfied({"x": 2, "y": 4})       # prod 8, sum 6
        assert not cs.is_satisfied({"x": 3, "y": 4})   # sum 7
        assert not cs.is_satisfied({"x": 1, "y": 13})  # prod 13

    def test_violated_lists_failures(self):
        prod = ProductLimitConstraint(("x", "y"), 2)
        tot = SumLimitConstraint(("x", "y"), 3.0)
        cs = ConstraintSet([prod, tot])
        violated = cs.violated({"x": 2, "y": 2})
        assert prod in violated and tot in violated
        assert cs.violated({"x": 1, "y": 1}) == []

    def test_extended_is_nonmutating(self):
        cs = ConstraintSet([ProductLimitConstraint(("x",), 2)])
        bigger = cs.extended(SumLimitConstraint(("x",), 1.0))
        assert len(cs) == 1 and len(bigger) == 2

    def test_iteration_and_len(self):
        items = [ProductLimitConstraint(("x",), 2)]
        cs = ConstraintSet(items)
        assert list(cs) == items
        assert len(cs) == 1
