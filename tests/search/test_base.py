"""Unit tests for the Objective budget contract and result types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.search import (
    BudgetExhausted,
    Objective,
    Tuner,
    TuningResult,
    best_of_rows,
)
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

    def test_measure_flats_serves_every_route(self, space):
        batches = []

        def measure_flats(flats):
            batches.append(flats.tolist())
            return flats * 2.0

        obj = Objective(space, None, budget=5, measure_flats=measure_flats)
        assert obj.evaluate({"x": 3}) == 6.0
        assert obj.evaluate_flat(4) == 8.0
        assert obj.evaluate_flats([1, 2, 7]) == [2.0, 4.0, 14.0]
        assert batches == [[3], [4], [1, 2, 7]]

    def test_needs_a_measurement_route(self, space):
        with pytest.raises(ValueError, match="measure"):
            Objective(space, None, budget=1)

    def test_evaluate_copies_config(self, space):
        obj = Objective(space, lambda c: 0.0, budget=2)
        cfg = {"x": 3}
        obj.evaluate(cfg)
        cfg["x"] = 9
        assert obj.configs[0]["x"] == 3


class TestMetricRegistrationOrder:
    """Checkpoint lines list a cell's metrics in registration order, so
    the batched route must register them in the per-evaluation order."""

    HIST = ("evaluate_seconds_sum", "evaluate_seconds_count")
    #: The order the checkpoint bytes pin, per case.
    ORDER = {
        (3.0, math.inf, 2.0, math.inf):
            ("evaluations_total", *HIST, "launch_failures_total"),
        (math.inf, 3.0, 2.0):
            ("evaluations_total", "launch_failures_total", *HIST),
        (3.0, 2.0, 1.0): ("evaluations_total", *HIST),
    }

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
        assert tuple(looped.flat_counters()) == self.ORDER[tuple(runtimes)]
        assert batched.flat_counters()["evaluations_total"] == len(runtimes)


class TestInstrumentHandles:
    """``Objective`` looks each counter up in the registry once and
    keeps the handle: later batches cost no registry lookups and land in
    the same counter."""

    def test_registry_lookups_once_per_instrument(self, space, monkeypatch):
        calls = []
        lookup = MetricsRegistry.counter

        def counted(self, name, *args, **kwargs):
            calls.append(name)
            return lookup(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "counter", counted)
        table = {x: (math.inf if x in (2, 7) else float(x)) for x in range(10)}
        registry = MetricsRegistry()
        obj = Objective(
            space, lambda c: table[c["x"]], budget=10, metrics=registry,
            measure_flats=lambda flats: np.array([table[f] for f in flats]),
        )
        obj.evaluate_flats([0, 1])
        obj.evaluate_flat(2)
        obj.evaluate({"x": 3})
        obj.evaluate_flats([4, 5, 6, 7])
        assert calls == [
            "evaluations_total", "evaluate_seconds_sum",
            "evaluate_seconds_count", "launch_failures_total",
        ]
        counters = registry.flat_counters()
        assert list(counters) == [
            "evaluations_total", "evaluate_seconds_sum",
            "evaluate_seconds_count", "launch_failures_total",
        ]
        assert counters["evaluations_total"] == 8
        assert counters["evaluate_seconds_count"] == 8
        assert counters["launch_failures_total"] == 2


class TestFlatHistory:
    """The objective records flat indices and decodes configurations
    only when asked; the decoded history equals eager decoding."""

    @pytest.fixture
    def space2(self):
        return SearchSpace(
            [IntegerParameter("x", 0, 9), IntegerParameter("y", 2, 5)]
        )

    def _objective(self, space2, budget, tables):
        values = {f: float(1 + (f * 7) % 11) for f in range(space2.size)}
        values[3] = float("inf")

        def measure(config):
            return values[space2.config_to_flat(config)]

        kwargs = {}
        if tables:
            kwargs = dict(
                measure_flats=lambda fs: np.array([values[f] for f in fs]),
            )
        return Objective(space2, measure, budget, **kwargs), values

    @pytest.mark.parametrize("tables", [True, False])
    def test_mixed_routes_decode_like_eager(self, space2, tables):
        obj, values = self._objective(space2, 12, tables)
        order = [{"x": 4, "y": 3}, 17, [3, 25, 0], {"x": 0, "y": 2}, 39,
                 [8, 8, 30]]
        expected = []
        for step in order:
            if isinstance(step, dict):
                obj.evaluate(step)
                expected.append(dict(step))
            elif isinstance(step, int):
                obj.evaluate_flat(step)
                expected.append(space2.flat_to_config(step))
            else:
                obj.evaluate_flats(np.array(step))
                expected += [space2.flat_to_config(f) for f in step]
        assert obj.configs == expected
        assert obj.flats == [space2.config_to_flat(c) for c in expected]
        assert obj.runtimes == [
            values[space2.config_to_flat(c)] for c in expected
        ]
        result = Tuner()._result_from(obj)
        assert result.history_configs == expected
        assert list(result.history_configs) == expected
        assert result.history_configs[1:4] == expected[1:4]
        assert result.history_configs[-1] == expected[-1]
        best = min(range(len(expected)), key=lambda i: obj.runtimes[i])
        assert result.best_config == expected[best]
        # The result is a snapshot: later evaluations do not reach it.
        obj.evaluate_flat(5)
        assert len(result.history_configs) == len(expected)

    @pytest.mark.parametrize("tables", [True, False])
    def test_mid_batch_exhaustion_keeps_affordable_prefix(
        self, space2, tables
    ):
        obj, _ = self._objective(space2, 5, tables)
        obj.evaluate({"x": 1, "y": 4})
        obj.evaluate_flat(6)
        with pytest.raises(BudgetExhausted):
            obj.evaluate_flats(np.array([9, 12, 14, 21, 33]))
        assert obj.configs == [
            {"x": 1, "y": 4}, space2.flat_to_config(6),
            *(space2.flat_to_config(f) for f in (9, 12, 14)),
        ]
        assert len(obj.runtimes) == obj.evaluations == 5

    def test_out_of_range_flat_rejected_before_measuring(self, space2):
        measured = []
        obj = Objective(
            space2, lambda c: 0.0, 4,
            measure_flats=lambda fs: measured.extend(fs) or np.zeros(len(fs)),
        )
        with pytest.raises(ValueError):
            obj.evaluate_flat(space2.size)
        with pytest.raises(ValueError):
            obj.evaluate_flats(np.array([0, -1]))
        assert measured == [] and obj.evaluations == 0


class TestTuningResult:
    def test_history_length_mismatch(self):
        with pytest.raises(ValueError):
            TuningResult(
                best_config={"x": 0},
                best_runtime_ms=1.0,
                history_configs=[{"x": 0}],
                history_runtimes=[1.0, 2.0],
            )


def best_observed_oracle(row):
    """The scalar best-of-samples rule ``Objective.best_observed`` used
    before it shared :func:`best_of_rows`: ``(index, runtime)`` of the
    first finite minimum, ``(0, inf)`` when nothing is finite."""
    arr = np.asarray(row, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.any():
        return 0, math.inf
    idx = int(np.flatnonzero(finite)[np.argmin(arr[finite])])
    return idx, float(arr[idx])


#: Few distinct values, so rows tie often; the non-finite ones too.
_RUNTIMES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def runtime_rows(draw):
    """An ``(n, S)`` array whose rows hold ties, ``inf``, NaN, and
    sometimes nothing finite at all."""
    width = draw(st.integers(1, 12))
    row = st.one_of(
        st.lists(_RUNTIMES, min_size=width, max_size=width),
        st.lists(_NON_FINITE, min_size=width, max_size=width),
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=8)))


class TestBestOfRows:
    @settings(max_examples=200, deadline=None)
    @given(runtime_rows())
    def test_matches_scalar_oracle(self, runtimes):
        index, best_ms = best_of_rows(runtimes)
        assert index.shape == best_ms.shape == (runtimes.shape[0],)
        for i, row in enumerate(runtimes):
            idx, best = best_observed_oracle(row)
            assert int(index[i]) == idx
            assert float(best_ms[i]) == best

    @settings(max_examples=100, deadline=None)
    @given(runtime_rows())
    def test_best_observed_reads_each_row_alike(self, runtimes):
        space = SearchSpace([IntegerParameter("x", 0, 99)])
        for row in runtimes:
            obj = Objective(space, lambda c: 0.0, budget=len(row))
            flats = np.arange(len(row)) * 7 % space.size
            obj.record_dataset(flats, row)
            idx, best = best_observed_oracle(row)
            assert obj.best_observed() == ({"x": int(flats[idx])}, best)

    def test_tie_and_all_failed_rows(self):
        index, best_ms = best_of_rows(
            [[3.0, 1.0, 2.0, 1.0], [math.inf, math.nan, -math.inf, math.inf]]
        )
        assert index.tolist() == [1, 0]
        assert best_ms.tolist() == [1.0, math.inf]
