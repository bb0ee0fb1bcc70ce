"""Phase profiling from spans: the telemetry's phase spans, their
per-phase/per-worker attribution, and the rendered profile report."""

import json

from repro.experiments.telemetry import StudyTelemetry
from repro.obs.spans import render_attribution, span_attribution


class TestPhaseProfiler:
    def test_accumulates_in_entry_order(self):
        telemetry = StudyTelemetry()
        with telemetry.study(None, "seed=1"):
            with telemetry.phase("landscapes"):
                pass
            with telemetry.phase("experiments"):
                pass
            with telemetry.phase("experiments"):
                pass
        docs = telemetry.span_docs()
        assert [d["name"] for d in docs] == [
            "study", "phase", "phase", "phase",
        ]
        assert list(telemetry.phase_seconds) == ["landscapes", "experiments"]
        assert [p["name"] for p in telemetry.snapshot()["phases"]] == [
            "landscapes", "experiments", "experiments",
        ]
        assert all(d["rss_kb"] > 0 for d in docs)
        assert all(d["duration_s"] >= 0 for d in docs)
        study = docs[0]
        assert all(d["parent_id"] == study["span_id"] for d in docs[1:])

    def test_snapshot_is_json_serializable(self):
        telemetry = StudyTelemetry()
        with telemetry.phase("optima"):
            pass
        json.dumps(telemetry.span_docs())
        json.dumps(telemetry.snapshot())

    def test_nested_phases_attribute_to_both(self):
        telemetry = StudyTelemetry()
        with telemetry.phase("outer"):
            with telemetry.phase("inner"):
                pass
        seconds = telemetry.phase_seconds
        assert seconds["inner"] <= seconds["outer"]
        phases = span_attribution(telemetry.span_docs())["phases"]
        assert set(phases) == {"outer", "inner"}

    def test_telemetry_drives_profiler_phases(self):
        telemetry = StudyTelemetry()
        with telemetry.phase("dataset"):
            pass
        assert "dataset" in span_attribution(telemetry.span_docs())["phases"]
        assert "dataset" in telemetry.phase_seconds


SPAN_EVENTS = [
    {"kind": "span", "span_id": "s", "name": "study",
     "start": 0.0, "duration_s": 8.0, "cpu_s": 2.0, "pid": 1},
    {"kind": "span", "span_id": "p", "parent_id": "s", "name": "phase",
     "subject": "experiments", "start": 1.0, "duration_s": 6.0,
     "cpu_s": 1.0, "pid": 1},
    {"kind": "span", "span_id": "w", "parent_id": "p",
     "name": "worker-chunk", "start": 1.5, "duration_s": 5.0,
     "cpu_s": 4.8, "pid": 2, "rss_kb": 2048},
]


class TestProfileFromEvents:
    def test_merges_phases_and_workers(self):
        attr = span_attribution(SPAN_EVENTS)
        assert attr["total_s"] == 8.0
        assert attr["phases"]["experiments"]["wall_s"] == 6.0
        assert attr["workers"][2]["busy_s"] == 5.0
        assert attr["workers"][2]["rss_kb_peak"] == 2048

    def test_render_mentions_every_phase_and_worker(self):
        text = render_attribution(span_attribution(SPAN_EVENTS))
        assert text.startswith("profile: 8.000s total")
        assert "experiments" in text
        assert "pid 2" in text
        assert "rss 2048 KiB" in text

    def test_render_handles_empty_profile(self):
        text = render_attribution(span_attribution([]))
        assert text.startswith("profile:")
