"""Tests for the counter registry and its Prometheus/JSON exports."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    global_registry,
    metrics,
    reset_global_registry,
    to_prometheus,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("evals_total").inc()
        reg.counter("evals_total").inc(4.0)
        assert reg.counter("evals_total").value == 5.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_counter_rejects_nan(self):
        # A single NaN would poison the value forever (NaN + x = NaN).
        counter = MetricsRegistry().counter("lat_seconds_sum")
        counter.inc(0.5)
        with pytest.raises(ValueError):
            counter.inc(float("nan"))
        assert counter.value == 0.5

    def test_counters_only(self):
        for name in ("Gauge", "Histogram", "DEFAULT_BUCKETS"):
            assert not hasattr(metrics, name)
        for name in ("gauge", "histogram"):
            assert not hasattr(MetricsRegistry, name)


class TestPrometheusExport:
    def test_counter_line(self):
        reg = MetricsRegistry()
        reg.counter("evals_total", help="total evaluations").inc(7)
        text = to_prometheus(reg.to_json())
        assert "# HELP evals_total total evaluations\n" in text
        assert "# TYPE evals_total counter\n" in text
        assert "evals_total 7\n" in text

    def test_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zzz").inc()
        reg.counter("aaa").inc()
        text = to_prometheus(reg.to_json())
        assert text.index("aaa") < text.index("zzz")

    def test_help_escaped_and_fractions_kept(self):
        reg = MetricsRegistry()
        reg.counter("lat_seconds_sum", help="a\\b\nc").inc(0.25)
        assert to_prometheus(reg.to_json()) == (
            "# HELP lat_seconds_sum a\\\\b\\nc\n"
            "# TYPE lat_seconds_sum counter\n"
            "lat_seconds_sum 0.25\n"
        )

    def test_empty_registry_renders_empty(self):
        assert to_prometheus(MetricsRegistry().to_json()) == ""


class TestJsonExport:
    def test_structure(self):
        reg = MetricsRegistry()
        reg.counter("evals_total", help="h").inc(3)
        # The layout of saved results and ledger manifests.
        assert reg.to_json() == {
            "evals_total": {
                "type": "counter",
                "help": "h",
                "series": [{"labels": {}, "value": 3.0}],
            }
        }

    def test_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("workers").inc(2)
        doc = json.loads(json.dumps(reg.to_json()))
        assert doc == reg.to_json()
        assert to_prometheus(doc) == to_prometheus(reg.to_json())


class TestCrossProcessMerging:
    def test_flat_counters_skips_zero_and_labeled(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("zero")  # never incremented
        with pytest.raises(TypeError):
            reg.counter("labeled", cell="x")  # no labeled series exist
        reg.counter("lat_sum").inc(0.25)
        reg.counter("lat_count").inc()
        flat = reg.flat_counters()
        assert flat == {"a": 2.0, "lat_sum": 0.25, "lat_count": 1.0}
        assert list(flat) == ["a", "lat_sum", "lat_count"]

    def test_merge_flat_is_additive(self):
        parent = MetricsRegistry()
        parent.counter("a").inc(1)
        parent.merge_flat({"a": 2.0, "b": 3.0})
        parent.merge_flat({"a": 0.5})
        assert parent.counter("a").value == 3.5
        assert parent.counter("b").value == 3.0


class TestGlobalRegistry:
    def test_singleton_until_reset(self):
        reset_global_registry()
        a = global_registry()
        assert global_registry() is a
        reset_global_registry()
        assert global_registry() is not a


class TestMergeFlatHistograms:
    """Timing pairs (``<name>_sum`` / ``<name>_count``) are plain
    counters on both sides of the merge."""

    def test_no_duplicate_prometheus_sample_names(self):
        worker = MetricsRegistry()
        worker.counter("fit_seconds_sum").inc(0.25)
        worker.counter("fit_seconds_count").inc()

        parent = MetricsRegistry()
        parent.counter("fit_seconds_sum").inc(0.5)
        parent.counter("fit_seconds_count").inc()
        parent.merge_flat(worker.flat_counters())
        text = to_prometheus(parent.to_json())
        series = [
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(series) == len(set(series))
        assert "fit_seconds_sum 0.75\n" in text
        assert "fit_seconds_count 2\n" in text

    def test_merge_without_histogram_still_counts(self):
        parent = MetricsRegistry()
        parent.merge_flat({"fit_seconds_sum": 0.5, "fit_seconds_count": 2.0})
        assert parent.counter("fit_seconds_sum").value == 0.5
        assert parent.counter("fit_seconds_count").value == 2.0
