"""Unit tests for study telemetry (counts, throughput, ETA, phases)."""

from repro.experiments import StudyTelemetry


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestPhases:
    def test_phase_wall_time_recorded(self):
        clock = FakeClock()
        t = StudyTelemetry(clock=clock)
        with t.phase("dataset"):
            clock.advance(2.5)
        with t.phase("optima"):
            clock.advance(1.0)
        assert t.phase_seconds["dataset"] == 2.5
        assert t.phase_seconds["optima"] == 1.0

    def test_repeated_phase_accumulates(self):
        clock = FakeClock()
        t = StudyTelemetry(clock=clock)
        for _ in range(3):
            with t.phase("experiments"):
                clock.advance(1.0)
        assert t.phase_seconds["experiments"] == 3.0


class TestProgress:
    def test_counts_and_throughput(self):
        clock = FakeClock()
        t = StudyTelemetry(clock=clock)
        t.start_tasks(10)
        for _ in range(4):
            clock.advance(0.5)
            t.task_finished(ok=True)
        clock.advance(0.5)
        t.task_finished(ok=False)
        assert t.completed == 4
        assert t.failed == 1
        assert t.throughput() == 5 / 2.5

    def test_eta(self):
        clock = FakeClock()
        t = StudyTelemetry(clock=clock)
        t.start_tasks(10)
        for _ in range(5):
            clock.advance(1.0)
            t.task_finished(ok=True)
        assert t.eta_seconds() == 5.0  # 5 remaining at 1/s

    def test_eta_none_before_any_finish(self):
        t = StudyTelemetry()
        t.start_tasks(10)
        assert t.eta_seconds() is None

    def test_emit_lines(self):
        lines = []
        clock = FakeClock()
        t = StudyTelemetry(emit=lines.append, report_every=2, clock=clock)
        t.start_tasks(4, skipped=3)
        for _ in range(4):
            clock.advance(1.0)
            t.task_finished(ok=True)
        assert any("checkpoint: 3 cells already complete" in l for l in lines)
        progress = [l for l in lines if l.startswith("experiments:")]
        assert progress[-1].startswith("experiments: 4/4")

    def test_snapshot_is_json_ready(self):
        import json

        clock = FakeClock()
        t = StudyTelemetry(clock=clock)
        with t.phase("dataset"):
            clock.advance(1.0)
        t.start_tasks(2)
        clock.advance(1.0)
        t.task_finished(ok=True)
        snap = json.loads(json.dumps(t.snapshot()))
        assert snap["completed"] == 1
        assert snap["phase_seconds"]["dataset"] == 1.0

    def test_snapshot_total_and_eta(self):
        clock = FakeClock()
        t = StudyTelemetry(clock=clock)
        t.start_tasks(4)
        clock.advance(1.0)
        t.task_finished(ok=True)
        snap = t.snapshot()
        assert snap["total"] == 4
        assert snap["eta_seconds"] == 3.0  # 3 remaining at 1/s

    def test_snapshot_eta_none_before_any_finish(self):
        t = StudyTelemetry()
        t.start_tasks(4)
        assert t.snapshot()["eta_seconds"] is None

    def test_snapshot_phase_list_ordered_with_started_at(self):
        clock = FakeClock()
        t = StudyTelemetry(clock=clock)
        with t.phase("dataset"):
            clock.advance(2.0)
        with t.phase("optima"):
            clock.advance(1.5)
        with t.phase("dataset"):  # repeated phases each get an entry
            clock.advance(0.5)
        phases = t.snapshot()["phases"]
        assert [p["name"] for p in phases] == ["dataset", "optima", "dataset"]
        assert [p["started_at"] for p in phases] == [0.0, 2.0, 3.5]
        assert [p["seconds"] for p in phases] == [2.0, 1.5, 0.5]
        # started_at values are monotonically non-decreasing.
        starts = [p["started_at"] for p in phases]
        assert starts == sorted(starts)


class TestStudyPhaseSpans:
    """The study's phase spans are its only phase clock."""

    def _config(self):
        from repro.experiments import ExperimentDesign, StudyConfig

        return StudyConfig(
            design=ExperimentDesign(
                sample_sizes=(25,), experiments_at_largest=2
            ),
            algorithms=("random_search",),
            kernels=("add",),
            archs=("titan_v",),
            image_x=512,
            image_y=512,
            workers=1,
        )

    @staticmethod
    def _summed(docs):
        acc = {}
        for doc in docs:
            if doc.get("kind") == "span" and doc.get("name") == "phase":
                acc[doc["subject"]] = (
                    acc.get(doc["subject"], 0.0) + doc["duration_s"]
                )
        return {k: round(v, 3) for k, v in acc.items()}

    def test_traced_phase_seconds_are_the_phase_spans(self, tmp_path):
        from repro.experiments import run_study
        from repro.obs.read import iter_trace_events

        results = run_study(
            self._config(),
            landscape_cache=tmp_path / "cache",
            trace_dir=tmp_path / "trace",
        )
        events = list(iter_trace_events([tmp_path / "trace"]))
        phase_seconds = results.metadata["telemetry"]["phase_seconds"]
        assert set(phase_seconds) >= {"landscapes", "optima", "experiments"}
        assert phase_seconds == self._summed(events)
        # The study's own span docs are the ones it wrote to the trace.
        written = {e["span_id"] for e in events}
        assert {d["span_id"] for d in results.metadata["spans"]} <= written

    def test_untraced_study_keeps_its_spans_in_metadata(self, tmp_path):
        from repro.experiments import run_study

        results = run_study(self._config(), landscape_cache=tmp_path / "c")
        telemetry = results.metadata["telemetry"]
        spans = results.metadata["spans"]
        assert telemetry["phase_seconds"] == self._summed(spans)
        assert [p["name"] for p in telemetry["phases"]] == [
            d["subject"] for d in spans if d["name"] == "phase"
        ]
        (study,) = [d for d in spans if d["name"] == "study"]
        assert all(
            d["parent_id"] == study["span_id"]
            for d in spans
            if d["name"] == "phase"
        )

    def test_events_trace_level_is_rejected(self, tmp_path):
        import pytest

        from repro.experiments import run_study

        with pytest.raises(ValueError) as err:
            run_study(
                self._config(),
                landscape_cache=tmp_path / "cache",
                trace_dir=tmp_path / "trace",
                trace_level="events",
            )
        assert "'spans'" in str(err.value)
