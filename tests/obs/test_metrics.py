"""Tests for the metrics registry and its Prometheus/JSON exports."""

import pytest

from repro.obs import (
    MetricsRegistry,
    global_registry,
    reset_global_registry,
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

    def test_gauge_moves_both_ways(self):
        g = MetricsRegistry().gauge("workers")
        g.set(4)
        g.dec()
        g.inc(2)
        assert g.value == 5.0

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)
        assert h.bucket_counts == [1, 1]  # 5.0 only in implicit +Inf

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", path="/a").inc()
        reg.counter("hits", path="/b").inc(2)
        assert reg.counter("hits", path="/a").value == 1.0
        assert reg.counter("hits", path="/b").value == 2.0


class TestHistogramObserveCount:
    @pytest.mark.parametrize("value", [0.0, 3e-5, 0.02, 7.5, 1e9])
    @pytest.mark.parametrize("count", [1, 2, 17])
    def test_count_equals_repeated_observes(self, value, count):
        once, looped = MetricsRegistry(), MetricsRegistry()
        for reg in (once, looped):
            reg.counter("evaluations_total").inc()
        once.histogram("evaluate_seconds").observe(value, count=count)
        for _ in range(count):
            looped.histogram("evaluate_seconds").observe(value)
        for reg in (once, looped):
            reg.counter("launch_failures_total").inc()
        a = once.histogram("evaluate_seconds")
        b = looped.histogram("evaluate_seconds")
        assert a.count == b.count == count
        assert a.bucket_counts == b.bucket_counts
        assert a.sum == pytest.approx(b.sum)
        assert list(once.flat_counters()) == list(looped.flat_counters())

    def test_count_must_be_positive(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.observe(1.0, count=0)
        assert h.count == 0


class TestPrometheusExport:
    def test_counter_line(self):
        reg = MetricsRegistry()
        reg.counter("evals_total", help="total evaluations").inc(7)
        text = reg.to_prometheus()
        assert "# HELP evals_total total evaluations\n" in text
        assert "# TYPE evals_total counter\n" in text
        assert "evals_total 7\n" in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a\\b"c\nd').inc()
        text = reg.to_prometheus()
        assert 'c{path="a\\\\b\\"c\\nd"} 1' in text

    def test_label_keys_sorted(self):
        reg = MetricsRegistry()
        reg.counter("c", zebra="1", alpha="2").inc()
        text = reg.to_prometheus()
        assert 'c{alpha="2",zebra="1"} 1' in text

    def test_families_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zzz").inc()
        reg.counter("aaa").inc()
        text = reg.to_prometheus()
        assert text.index("aaa") < text.index("zzz")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 5.55" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestJsonExport:
    def test_structure(self):
        reg = MetricsRegistry()
        reg.counter("evals_total").inc(3)
        reg.histogram("lat", buckets=(1.0,)).observe(0.5)
        doc = reg.to_json()
        assert doc["evals_total"]["type"] == "counter"
        assert doc["evals_total"]["series"][0]["value"] == 3.0
        lat = doc["lat"]["series"][0]
        assert lat["buckets"] == [1.0]
        assert lat["count"] == 1

    def test_to_json_text_round_trips(self):
        import json

        reg = MetricsRegistry()
        reg.gauge("workers").set(2)
        assert json.loads(reg.to_json_text())["workers"]["type"] == "gauge"


class TestCrossProcessMerging:
    def test_flat_counters_skips_zero_and_labeled(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("zero")  # never incremented
        reg.counter("labeled", cell="x").inc()
        reg.histogram("lat").observe(0.25)
        flat = reg.flat_counters()
        assert flat == {"a": 2.0, "lat_sum": 0.25, "lat_count": 1.0}

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


class TestHistogramNaNGuard:
    def test_observe_nan_rejected(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(0.5)
        with pytest.raises(ValueError, match="NaN"):
            h.observe(float("nan"))
        # The poisoning observation left no trace.
        assert h.sum == 0.5
        assert h.count == 1


class TestMergeFlatHistograms:
    def test_flat_entries_merge_into_histogram_family(self):
        worker = MetricsRegistry()
        worker.histogram("fit_seconds").observe(0.25)
        worker.histogram("fit_seconds").observe(0.75)
        worker.counter("evals_total").inc(5)

        parent = MetricsRegistry()
        parent.histogram("fit_seconds").observe(0.5)
        parent.merge_flat(worker.flat_counters())

        h = parent.histogram("fit_seconds")
        assert h.sum == pytest.approx(1.5)
        assert h.count == 3
        assert parent.counter("evals_total").value == 5.0
        # No counter families shadowing the histogram's sample names.
        doc = parent.to_json()
        assert "fit_seconds_sum" not in doc
        assert "fit_seconds_count" not in doc

    def test_no_duplicate_prometheus_sample_names(self):
        worker = MetricsRegistry()
        worker.histogram("fit_seconds").observe(0.25)

        parent = MetricsRegistry()
        parent.histogram("fit_seconds").observe(0.5)
        parent.merge_flat(worker.flat_counters())
        text = parent.to_prometheus()
        # Each (sample name, label set) appears exactly once — before the
        # fix, merge_flat registered fit_seconds_sum / fit_seconds_count
        # counters next to the histogram's samples of the same names.
        series = [
            line.rsplit(" ", 1)[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(series) == len(set(series))
        assert "fit_seconds_sum" in text
        assert "# TYPE fit_seconds_sum counter" not in text

    def test_merge_without_histogram_still_counts(self):
        # A registry with no histogram family keeps the old behavior:
        # flat _sum/_count entries accumulate as counters.
        parent = MetricsRegistry()
        parent.merge_flat({"fit_seconds_sum": 0.5, "fit_seconds_count": 2.0})
        assert parent.counter("fit_seconds_sum").value == 0.5
        assert parent.counter("fit_seconds_count").value == 2.0

    def test_histogram_registration_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("lat_sum").inc()
        with pytest.raises(ValueError, match="collide"):
            reg.histogram("lat")

    def test_merged_count_lands_in_inf_bucket(self):
        worker = MetricsRegistry()
        worker.histogram("lat").observe(0.25)
        parent = MetricsRegistry()
        parent.histogram("lat")  # family exists, no observations
        parent.merge_flat(worker.flat_counters())
        text = parent.to_prometheus()
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
