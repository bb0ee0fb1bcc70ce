"""Unit tests for the Objective budget contract and result types."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.search import BudgetExhausted, Objective, TuningResult
from repro.searchspace import IntegerParameter, SearchSpace


@pytest.fixture
def space():
    return SearchSpace([IntegerParameter("x", 0, 9)])


class TestObjective:
    def test_budget_enforced(self, space):
        obj = Objective(space, lambda c: float(c["x"]), budget=3)
        for x in range(3):
            obj.evaluate({"x": x})
        with pytest.raises(BudgetExhausted):
            obj.evaluate({"x": 5})
        assert obj.evaluations == 3

    def test_invalid_budget(self, space):
        with pytest.raises(ValueError):
            Objective(space, lambda c: 0.0, budget=0)

    def test_history_recorded_in_order(self, space):
        obj = Objective(space, lambda c: float(c["x"]), budget=5)
        for x in (4, 2, 8):
            obj.evaluate({"x": x})
        assert [c["x"] for c in obj.configs] == [4, 2, 8]
        assert obj.runtimes == [4.0, 2.0, 8.0]

    def test_remaining(self, space):
        obj = Objective(space, lambda c: 0.0, budget=4)
        obj.evaluate({"x": 0})
        assert obj.remaining == 3

    def test_best_observed_skips_failures(self, space):
        values = {0: float("inf"), 1: 5.0, 2: 3.0}
        obj = Objective(space, lambda c: values[c["x"]], budget=3)
        for x in range(3):
            obj.evaluate({"x": x})
        cfg, rt = obj.best_observed()
        assert cfg == {"x": 2}
        assert rt == 3.0

    def test_best_observed_all_failed(self, space):
        obj = Objective(space, lambda c: float("inf"), budget=2)
        obj.evaluate({"x": 0})
        obj.evaluate({"x": 1})
        cfg, rt = obj.best_observed()
        assert rt == float("inf")
        assert cfg == {"x": 0}

    def test_best_observed_empty(self, space):
        obj = Objective(space, lambda c: 0.0, budget=1)
        with pytest.raises(RuntimeError):
            obj.best_observed()

    def test_evaluate_copies_config(self, space):
        obj = Objective(space, lambda c: 0.0, budget=2)
        cfg = {"x": 3}
        obj.evaluate(cfg)
        cfg["x"] = 9
        assert obj.configs[0]["x"] == 3


class TestMetricRegistrationOrder:
    """Checkpoint lines list a cell's metrics in registration order, so
    the batched route must register them in the per-evaluation order."""

    @pytest.mark.parametrize(
        "runtimes",
        [
            [3.0, float("inf"), 2.0, float("inf")],  # first failure later
            [float("inf"), 3.0, 2.0],  # first evaluation fails
            [3.0, 2.0, 1.0],  # no failure
        ],
    )
    def test_evaluate_flats_matches_evaluate_loop(self, space, runtimes):
        table = dict(enumerate(runtimes))
        looped = MetricsRegistry()
        obj = Objective(space, lambda c: table[c["x"]], len(runtimes),
                        metrics=looped)
        for x in range(len(runtimes)):
            obj.evaluate({"x": x})
        batched = MetricsRegistry()
        obj = Objective(
            space, lambda c: table[c["x"]], len(runtimes), metrics=batched,
            measure_flats=lambda flats: np.array([table[f] for f in flats]),
        )
        obj.evaluate_flats(np.arange(len(runtimes)))
        assert list(batched.flat_counters()) == list(looped.flat_counters())
        assert batched.flat_counters()["evaluations_total"] == len(runtimes)


class TestTuningResult:
    def test_history_length_mismatch(self):
        with pytest.raises(ValueError):
            TuningResult(
                best_config={"x": 0},
                best_runtime_ms=1.0,
                history_configs=[{"x": 0}],
                history_runtimes=[1.0, 2.0],
            )
