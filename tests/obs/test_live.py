"""Live study monitoring: read-only tailing, progress, ETA, watch loop."""

import json

import pytest

from repro.obs.live import StudyWatch, watch_study


def _write_lines(path, docs, tear=None):
    with path.open("a") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
        if tear is not None:
            fh.write(tear)  # no newline: a writer mid-line


def _header():
    return {"kind": "header", "version": 1, "root_seed": 1}


def _plan(total):
    return {"kind": "plan", "data": {"total_cells": total}}


def _result(key):
    return {"kind": "result", "cell_key": key, "data": {}}


class TestStudyWatch:
    def test_requires_some_input(self):
        with pytest.raises(ValueError):
            StudyWatch()

    def test_progress_from_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [_header(), _plan(4), _result("a/0")])
        watch = StudyWatch(checkpoint=ck)
        status = watch.poll()
        assert status["total"] == 4
        assert status["completed"] == 1
        assert status["last_cell"] == "a/0"

        _write_lines(ck, [
            _result("a/1"),
            {"kind": "failure", "cell_key": "a/2", "error": "boom"},
            # A line kind the watcher does not track is passed over.
            {"kind": "stopped", "group_key": "g",
             "data": {"reason": "ci_target"}},
        ])
        status = watch.poll()
        assert status["completed"] == 2
        assert status["failed"] == 1
        line = watch.render(status)
        assert "cells 3/4" in line
        assert "1 failed" in line

    def test_torn_final_line_left_for_next_poll(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [_header(), _plan(2)], tear='{"kind": "resu')
        watch = StudyWatch(checkpoint=ck)
        assert watch.poll()["completed"] == 0
        # The writer finishes the line; the next poll picks it up whole.
        with ck.open("a") as fh:
            fh.write('lt", "cell_key": "a/0", "data": {}}\n')
        assert watch.poll()["completed"] == 1

    def test_never_writes_study_files(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [_header(), _plan(1)])
        before = (ck.stat().st_mtime_ns, ck.read_bytes())
        StudyWatch(checkpoint=ck).poll()
        assert (ck.stat().st_mtime_ns, ck.read_bytes()) == before

    def test_trace_event_counts(self, tmp_path):
        trace = tmp_path / "trace"
        trace.mkdir()
        _write_lines(trace / "trace-1.jsonl", [
            {"kind": "evaluate", "cell": "a/0", "index": 0},
            {"kind": "span", "span_id": "s", "name": "study",
             "start": 0.0, "duration_s": 1.0, "pid": 1},
        ])
        watch = StudyWatch(trace_dir=trace)
        status = watch.poll()
        assert status["spans"] == 1
        assert "1 spans" in watch.render(status)
        assert "evaluat" not in watch.render(status)

    def test_throughput_and_eta_from_sliding_window(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [_header(), _plan(10)])
        now = [0.0]
        watch = StudyWatch(checkpoint=ck, clock=lambda: now[0])
        watch.poll()
        # One completion per second for 4 seconds.
        for i in range(4):
            now[0] = float(i + 1)
            _write_lines(ck, [_result(f"a/{i}")])
            status = watch.poll()
        assert status["completed"] == 4
        assert status["throughput_per_s"] == pytest.approx(1.0, abs=0.01)
        # 6 cells remain at ~1/s.
        assert status["eta_seconds"] == pytest.approx(6.0, abs=0.5)
        assert "ETA" in watch.render(status)


class TestWatchStudy:
    def test_exits_when_study_completes(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [_header(), _plan(2)])
        lines = []
        polls = [0]

        def fake_sleep(_):
            # The study finishes while the watcher sleeps.
            polls[0] += 1
            if polls[0] == 1:
                _write_lines(ck, [_result("a/0"), _result("a/1")])

        rc = watch_study(
            checkpoint=ck, emit=lines.append, sleep=fake_sleep,
            clock=lambda: 0.0,
        )
        assert rc == 0
        assert lines[-1] == "study complete"
        assert any("cells 2/2" in l for l in lines)

    def test_budget_cells_plan_completes(self, tmp_path):
        # Checkpoints from the adaptive-replication era carry
        # ``budget_cells`` instead of ``total_cells`` in their plan.
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [
            _header(),
            {"kind": "plan", "data": {"budget_cells": 3}},
            _result("a/0"), _result("a/1"), _result("a/2"),
        ])
        lines = []
        polls = [0]

        def counting_sleep(_):
            polls[0] += 1

        rc = watch_study(
            checkpoint=ck, max_polls=3, emit=lines.append,
            sleep=counting_sleep, clock=lambda: 0.0,
        )
        assert rc == 0
        assert lines[-1] == "study complete"
        assert polls[0] == 0
        assert any("cells 3/3" in l for l in lines)

    def test_max_polls_bounds_the_loop(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [_header(), _plan(5)])
        lines = []
        rc = watch_study(
            checkpoint=ck, max_polls=3, emit=lines.append,
            sleep=lambda _: None, clock=lambda: 0.0,
        )
        assert rc == 0
        assert lines  # progress was reported even though never done

    def test_waits_for_missing_files(self, tmp_path):
        ck = tmp_path / "not-yet.jsonl"
        lines = []
        polls = [0]

        def fake_sleep(_):
            polls[0] += 1
            if polls[0] == 2:
                _write_lines(ck, [_header(), _plan(1), _result("a/0")])

        rc = watch_study(
            checkpoint=ck, emit=lines.append, sleep=fake_sleep,
            clock=lambda: 0.0,
        )
        assert rc == 0
        assert "waiting" in lines[0]
        assert lines[-1] == "study complete"

    def test_repeated_identical_lines_deduplicated(self, tmp_path):
        ck = tmp_path / "ck.jsonl"
        _write_lines(ck, [_header(), _plan(5), _result("a/0")])
        lines = []
        watch_study(
            checkpoint=ck, max_polls=4, emit=lines.append,
            sleep=lambda _: None, clock=lambda: 0.0,
        )
        progress = [l for l in lines if l.startswith("cells")]
        assert len(progress) == 1  # nothing changed between polls
