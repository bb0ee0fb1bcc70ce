"""Tests for the JSONL span writer and the trace schema/reader."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs import (
    JsonlTracer,
    tracer_for_dir,
    validate_event,
    validate_trace_lines,
    validate_trace_path,
)
from repro.obs.read import iter_trace_events, main as read_main, summarize_events


def _span(**over):
    """The fields of one ``span`` event, without the ``t``/``kind``
    pair the writer adds."""
    doc = {
        "span_id": "s1", "name": "study", "start": 1.0,
        "duration_s": 2.0, "pid": 100,
    }
    doc.update(over)
    return doc


class TestJsonlTracer:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path, clock=lambda: 1234.5)
        tracer.event("span", **_span())
        tracer.event("span", **_span(span_id="p1", name="phase",
                                     parent_id="s1"))
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert docs[0] == {"t": 1234.5, "kind": "span", **_span()}
        assert docs[1]["parent_id"] == "s1"

    def test_creates_parent_dirs_lazily(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        tracer = JsonlTracer(path)
        assert not path.parent.exists()  # nothing until the first event
        tracer.event("span", **_span())
        tracer.close()
        assert path.exists()

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for i in range(2):
            tracer = JsonlTracer(path)
            tracer.event("span", **_span(duration_s=float(i)))
            tracer.close()
        assert len(path.read_text().splitlines()) == 2


class TestTracerForDir:
    def test_cached_per_pid_and_dir(self, tmp_path):
        a = tracer_for_dir(tmp_path / "t1")
        b = tracer_for_dir(tmp_path / "t1")
        c = tracer_for_dir(tmp_path / "t2")
        assert a is b
        assert a is not c

    def test_filename_carries_pid(self, tmp_path):
        tracer = tracer_for_dir(tmp_path)
        assert tracer.path.name == f"trace-{os.getpid()}.jsonl"


class TestSchema:
    def _event(self, **over):
        doc = {"t": 1.0, "kind": "span", **_span()}
        doc.update(over)
        return doc

    def test_valid_event(self):
        assert validate_event(self._event()) == []

    def test_missing_common_field(self):
        doc = self._event()
        del doc["t"]
        assert any("'t'" in e for e in validate_event(doc))

    def test_unknown_kind(self):
        assert any(
            "unknown" in e for e in validate_event(self._event(kind="boop"))
        )
        # The per-cell trajectory kinds of schema v1/v2 are gone.
        assert any(
            "unknown" in e
            for e in validate_event(self._event(kind="evaluate"))
        )

    def test_missing_required_field(self):
        doc = self._event()
        del doc["duration_s"]
        assert any("duration_s" in e for e in validate_event(doc))

    def test_bool_is_not_an_int(self):
        errors = validate_event(self._event(pid=True))
        assert any("pid" in e for e in errors)

    def test_extra_fields_allowed(self):
        assert validate_event(self._event(note="extra")) == []

    def test_torn_final_line_tolerated(self):
        good = json.dumps(self._event())
        assert validate_trace_lines([good, '{"t": 1.0, "ki']) == []

    def test_torn_middle_line_is_an_error(self):
        good = json.dumps(self._event())
        errors = validate_trace_lines(['{"t": 1.0, "ki', good])
        assert any("not valid JSON" in e for e in errors)

    def test_validate_directory(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(
            json.dumps(self._event()) + "\n"
        )
        (tmp_path / "b.jsonl").write_text('{"kind": "boop"}\n')
        errors = validate_trace_path(tmp_path)
        assert len(errors) >= 1
        assert all("b.jsonl" in e for e in errors)


class TestReader:
    def _write_trace(self, path):
        tracer = JsonlTracer(path, clock=lambda: 1.0)
        tracer.event("span", **_span())
        for i, subject in enumerate(["optima", "experiments"]):
            tracer.event("span", **_span(
                span_id=f"p{i}", name="phase", subject=subject,
                parent_id="s1",
            ))
        tracer.event("span", **_span(
            span_id="w1", name="worker-chunk", parent_id="p1", pid=200,
        ))
        tracer.close()

    def test_summarize(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        summary = summarize_events(iter_trace_events([path]))
        assert summary == {"events": 4, "kinds": {"span": 4}}

    def test_main_validate_ok(self, tmp_path, capsys):
        self._write_trace(tmp_path / "trace.jsonl")
        rc = read_main([str(tmp_path), "--validate", "--spans"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schema: OK" in out
        assert "phase experiments" in out
        assert "worker-chunk" in out

    def test_main_validate_fails_on_bad_trace(self, tmp_path, capsys):
        (tmp_path / "bad.jsonl").write_text('{"kind": "boop"}\n{}\n')
        rc = read_main([str(tmp_path), "--validate"])
        assert rc == 1
        assert "schema error" in capsys.readouterr().err

    def test_main_missing_path(self, tmp_path, capsys):
        rc = read_main([str(tmp_path / "nope.jsonl")])
        assert rc == 2

    def test_main_json_output(self, tmp_path, capsys):
        self._write_trace(tmp_path / "trace.jsonl")
        rc = read_main([str(tmp_path), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["events"] == 4


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["repro.obs.read", "repro.obs.runs"])
    def test_runs_without_runtime_warning(self, module):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
