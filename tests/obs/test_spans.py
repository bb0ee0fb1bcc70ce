"""Hierarchical span tracing: emission, propagation, and reading back.

Covers the span lifecycle end to end — :class:`SpanScope` event
emission and schema validity, cross-process propagation of
:class:`SpanContext` through :class:`~repro.parallel.ParallelMap`
workers, forest reconstruction from the merged event stream, and the
per-phase/per-worker attribution the profile report prints.
"""

import json
import os
import pickle

import pytest

from repro.obs import validate_trace_path
from repro.obs.spans import (
    SpanContext,
    SpanScope,
    build_span_forest,
    child_span,
    new_span_id,
    render_span_tree,
    span_attribution,
    worker_timeline,
    _union_seconds,
)
from repro.obs.trace import tracer_for_dir
from repro.parallel import ParallelMap


def _read_events(trace_dir):
    events = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                events.append(json.loads(line))
    return events


def _close_tracers(trace_dir):
    tracer_for_dir(str(trace_dir)).close()


class TestSpanScope:
    def test_emits_one_schema_valid_span_event(self, tmp_path):
        with SpanScope(tmp_path, "study", subject="seed=1"):
            pass
        _close_tracers(tmp_path)
        events = _read_events(tmp_path)
        assert len(events) == 1
        doc = events[0]
        assert doc["kind"] == "span"
        assert doc["name"] == "study"
        assert doc["subject"] == "seed=1"
        assert doc["pid"] == os.getpid()
        assert doc["duration_s"] >= 0
        assert doc["cpu_s"] >= 0
        assert "parent_id" not in doc
        assert validate_trace_path(tmp_path) == []

    def test_context_exists_before_enter(self, tmp_path):
        scope = SpanScope(tmp_path, "phase", subject="experiments")
        # A parent can hand its context to children before the clock
        # starts — that is what lets the study mint the experiments
        # span and ship its ctx inside tasks before dispatch.
        assert isinstance(scope.ctx, SpanContext)
        assert scope.ctx.span_id == scope.span_id
        with scope as ctx:
            assert ctx is scope.ctx
        _close_tracers(tmp_path)

    def test_child_links_to_parent_and_inherits_trace_id(self, tmp_path):
        with SpanScope(tmp_path, "study") as study_ctx:
            with child_span(study_ctx, "phase", subject="optima") as child:
                assert child.trace_id == study_ctx.trace_id
        _close_tracers(tmp_path)
        events = _read_events(tmp_path)
        by_name = {e["name"]: e for e in events}
        assert by_name["phase"]["parent_id"] == by_name["study"]["span_id"]
        assert by_name["phase"]["trace_id"] == by_name["study"]["trace_id"]

    def test_exception_recorded_and_propagated(self, tmp_path):
        with pytest.raises(ValueError):
            with SpanScope(tmp_path, "cell", subject="x"):
                raise ValueError("boom")
        _close_tracers(tmp_path)
        (doc,) = _read_events(tmp_path)
        assert doc["error"] == "ValueError"
        assert validate_trace_path(tmp_path) == []

    def test_extra_fields_ride_on_the_event(self, tmp_path):
        with SpanScope(tmp_path, "worker-chunk", fields={"tasks": 7}):
            pass
        _close_tracers(tmp_path)
        (doc,) = _read_events(tmp_path)
        assert doc["tasks"] == 7

    def test_context_is_picklable_and_hashable(self):
        ctx = SpanContext("/tmp/t", new_span_id(), new_span_id())
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        assert len({ctx, ctx}) == 1

    def test_span_ids_unique(self):
        ids = {new_span_id() for _ in range(256)}
        assert len(ids) == 256
        assert all(len(i) == 16 for i in ids)


def _spanned_task(payload):
    """Module-level so ParallelMap can pickle it to workers."""
    return (os.getpid(), payload * 2)


class TestCrossProcess:
    def test_worker_chunks_parent_on_propagated_context(self, tmp_path):
        parent = SpanScope(tmp_path, "phase", subject="experiments")
        pool = ParallelMap(workers=2, span_context=parent.ctx)
        with parent:
            outcomes = pool.run(_spanned_task, list(range(8)))
        _close_tracers(tmp_path)
        assert [o.result[1] for o in outcomes] == [i * 2 for i in range(8)]

        events = _read_events(tmp_path)
        chunks = [e for e in events if e.get("name") == "worker-chunk"]
        assert chunks, "workers emitted no chunk spans"
        assert all(c["parent_id"] == parent.span_id for c in chunks)
        assert all(c["trace_id"] == parent.trace_id for c in chunks)
        # Worker spans come from worker processes, not the parent.
        assert all(c["pid"] != os.getpid() for c in chunks)
        assert sum(c["tasks"] for c in chunks) == 8
        assert validate_trace_path(tmp_path) == []

    def test_serial_pool_emits_no_worker_spans(self, tmp_path):
        parent = SpanScope(tmp_path, "phase", subject="experiments")
        pool = ParallelMap(workers=1, span_context=parent.ctx)
        with parent:
            pool.run(_spanned_task, list(range(4)))
        _close_tracers(tmp_path)
        events = _read_events(tmp_path)
        assert [e["name"] for e in events if e["kind"] == "span"] == ["phase"]


def _forest_events():
    """A hand-built two-process span stream."""
    return [
        {"kind": "span", "span_id": "s1", "name": "study",
         "start": 0.0, "duration_s": 10.0, "cpu_s": 4.0, "pid": 100},
        {"kind": "span", "span_id": "p1", "parent_id": "s1",
         "name": "phase", "subject": "landscapes",
         "start": 0.0, "duration_s": 4.0, "cpu_s": 3.0, "pid": 100},
        {"kind": "span", "span_id": "p2", "parent_id": "s1",
         "name": "phase", "subject": "experiments",
         "start": 4.0, "duration_s": 6.0, "cpu_s": 1.0, "pid": 100},
        {"kind": "span", "span_id": "w1", "parent_id": "p2",
         "name": "worker-chunk", "start": 4.5, "duration_s": 5.0,
         "cpu_s": 4.5, "pid": 200, "rss_kb": 1024},
        {"kind": "span", "span_id": "c1", "parent_id": "w1",
         "name": "cell", "subject": "rs/add/titan_v/25/0",
         "start": 4.6, "duration_s": 2.0, "cpu_s": 1.9, "pid": 200},
        # Parent never recorded (killed worker): becomes a root.
        {"kind": "span", "span_id": "x1", "parent_id": "gone",
         "name": "cell", "subject": "orphan",
         "start": 9.0, "duration_s": 0.5, "cpu_s": 0.4, "pid": 300},
        {"kind": "evaluate", "cell": "rs/add/titan_v/25/0", "index": 0},
    ]


class TestForest:
    def test_tree_structure(self):
        roots = build_span_forest(_forest_events())
        assert [r.label for r in roots] == ["study", "cell orphan"]
        study = roots[0]
        assert [c.subject for c in study.children] == [
            "landscapes", "experiments",
        ]
        chunk = study.children[1].children[0]
        assert chunk.name == "worker-chunk"
        assert [c.subject for c in chunk.children] == ["rs/add/titan_v/25/0"]

    def test_render_connects_last_child(self):
        text = render_span_tree(build_span_forest(_forest_events()))
        # Every non-root line carries a branch connector — the last
        # child of a root must not render as a fake sibling root.
        assert "└─ phase experiments" in text
        assert "├─ phase landscapes" in text
        assert "[pid 200]" in text

    def test_max_depth_truncates(self):
        text = render_span_tree(
            build_span_forest(_forest_events()), max_depth=1
        )
        assert "phase experiments" in text
        assert "worker-chunk" not in text

    def test_union_seconds_handles_nesting_and_gaps(self):
        assert _union_seconds([(0, 4), (1, 2)]) == 4.0
        assert _union_seconds([(0, 1), (2, 3)]) == 2.0
        assert _union_seconds([]) == 0.0

    def test_attribution(self):
        attr = span_attribution(_forest_events())
        assert attr["total_s"] == 10.0
        assert attr["study_pid"] == 100
        assert attr["phases"]["landscapes"]["wall_s"] == 4.0
        assert attr["phases"]["experiments"]["cpu_s"] == 1.0
        w = attr["workers"][200]
        # cell nests inside its chunk: busy time is the union, not sum.
        assert w["busy_s"] == 5.0
        assert w["spans"] == 2
        assert w["rss_kb_peak"] == 1024

    def test_attribution_counts_pid_cpu_once(self):
        # One process: study -> phase -> cell.  The nested spans' CPU is
        # inside the study span's, so the pid's CPU is the study's.
        events = [
            {"kind": "span", "span_id": "s", "name": "study",
             "start": 0.0, "duration_s": 2.0, "cpu_s": 1.5, "pid": 7},
            {"kind": "span", "span_id": "p", "parent_id": "s",
             "name": "phase", "subject": "experiments",
             "start": 0.5, "duration_s": 1.4, "cpu_s": 1.2, "pid": 7},
            {"kind": "span", "span_id": "c", "parent_id": "p",
             "name": "cell", "subject": "rs/add/titan_v/25/0",
             "start": 0.6, "duration_s": 1.0, "cpu_s": 0.9, "pid": 7},
        ]
        attr = span_attribution(events)
        assert attr["workers"][7]["cpu_s"] == 1.5
        assert attr["workers"][7]["spans"] == 3
        # Across processes each pid keeps its outermost spans' CPU.
        two = span_attribution(_forest_events())
        assert two["workers"][100]["cpu_s"] == 4.0
        assert two["workers"][200]["cpu_s"] == 4.5
        assert two["workers"][300]["cpu_s"] == 0.4

    def test_worker_timeline_shades_by_busy_fraction(self):
        text = worker_timeline(_forest_events(), width=20)
        lines = text.splitlines()
        assert lines[0].startswith("timeline:")
        row_100 = next(l for l in lines if "pid      100" in l)
        # pid 100's study span covers the whole extent.
        assert "#" * 20 in row_100
        assert worker_timeline([{"kind": "evaluate"}]) == "(no spans)"
