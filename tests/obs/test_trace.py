"""Tests for the JSONL tracer, null tracer, and trace schema/reader."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    tracer_for_dir,
    validate_event,
    validate_trace_lines,
    validate_trace_path,
)
from repro.obs.read import iter_trace_events, main as read_main, summarize_events
from repro.search import Objective
from repro.searchspace import IntegerParameter, SearchSpace


def _objective(tracer=None):
    space = SearchSpace([IntegerParameter("thread_x", 1, 2)])
    return Objective(space, lambda config: 1.0, budget=1, tracer=tracer,
                     cell="x")


class TestJsonlTracer:
    def test_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path, clock=lambda: 1234.5)
        tracer.event("tuner_start", cell="a/b/c/25/0", algorithm="a", budget=25)
        tracer.event(
            "evaluate", cell="a/b/c/25/0", index=0, config={"thread_x": 1},
            runtime_ms=1.5, best_ms=1.5, source="live",
        )
        tracer.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert docs[0] == {
            "t": 1234.5, "kind": "tuner_start", "cell": "a/b/c/25/0",
            "algorithm": "a", "budget": 25,
        }
        assert docs[1]["config"] == {"thread_x": 1}
        assert tracer.events_written == 2

    def test_creates_parent_dirs_lazily(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "trace.jsonl"
        tracer = JsonlTracer(path)
        assert not path.parent.exists()  # nothing until the first event
        tracer.event("model_fit", cell="x", duration_s=0.1)
        tracer.close()
        assert path.exists()

    def test_objective_span_without_metrics_emits_duration(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(path)
        objective = _objective(tracer=tracer)
        assert objective.metrics is None
        with objective.span("model_fit", n_obs=7):
            pass
        tracer.close()
        doc = json.loads(path.read_text())
        assert doc["kind"] == "model_fit"
        assert doc["cell"] == "x"
        assert doc["n_obs"] == 7
        assert doc["duration_s"] >= 0.0
        assert validate_event(doc) == []

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for i in range(2):
            tracer = JsonlTracer(path)
            tracer.event("propose", cell="x", duration_s=float(i))
            tracer.close()
        assert len(path.read_text().splitlines()) == 2


class TestNullTracer:
    def test_everything_is_a_noop(self, tmp_path):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.event("evaluate", cell="x")  # no error, no output
        NULL_TRACER.close()

    def test_unobserved_objective_span_is_a_shared_singleton(self):
        # The disabled path must not allocate per call.
        objective = _objective()
        with objective.span("model_fit"):
            pass
        assert objective.span("a") is objective.span("b")

    def test_subclass_relationship(self):
        assert isinstance(NULL_TRACER, NullTracer)


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
    def _evaluate(self, **over):
        doc = {
            "t": 1.0, "kind": "evaluate", "cell": "a/b/c/25/0", "index": 0,
            "config": {}, "runtime_ms": 2.0, "best_ms": 2.0, "source": "live",
        }
        doc.update(over)
        return doc

    def test_valid_event(self):
        assert validate_event(self._evaluate()) == []

    def test_missing_common_field(self):
        doc = self._evaluate()
        del doc["cell"]
        assert any("cell" in e for e in validate_event(doc))

    def test_unknown_kind(self):
        assert any(
            "unknown" in e for e in validate_event(self._evaluate(kind="boop"))
        )

    def test_missing_required_field(self):
        doc = self._evaluate()
        del doc["runtime_ms"]
        assert any("runtime_ms" in e for e in validate_event(doc))

    def test_bool_is_not_an_int(self):
        errors = validate_event(self._evaluate(index=True))
        assert any("index" in e for e in errors)

    def test_bad_source(self):
        errors = validate_event(self._evaluate(source="psychic"))
        assert any("source" in e for e in errors)

    def test_extra_fields_allowed(self):
        assert validate_event(self._evaluate(note="extra")) == []

    def test_torn_final_line_tolerated(self):
        good = json.dumps(self._evaluate())
        assert validate_trace_lines([good, '{"t": 1.0, "ki']) == []

    def test_torn_middle_line_is_an_error(self):
        good = json.dumps(self._evaluate())
        errors = validate_trace_lines(['{"t": 1.0, "ki', good])
        assert any("not valid JSON" in e for e in errors)

    def test_validate_directory(self, tmp_path):
        (tmp_path / "a.jsonl").write_text(
            json.dumps(self._evaluate()) + "\n"
        )
        (tmp_path / "b.jsonl").write_text('{"kind": "boop"}\n')
        errors = validate_trace_path(tmp_path)
        assert len(errors) >= 1
        assert all("b.jsonl" in e for e in errors)


class TestReader:
    def _write_trace(self, path):
        tracer = JsonlTracer(path, clock=lambda: 1.0)
        cell = "rs/add/titan_v/25/0"
        tracer.event("tuner_start", cell=cell, algorithm="rs", budget=2)
        for i, ms in enumerate([3.0, 2.0]):
            tracer.event(
                "evaluate", cell=cell, index=i, config={}, runtime_ms=ms,
                best_ms=min(3.0, ms), source="live",
            )
        tracer.event("tuner_end", cell=cell, samples_used=2, best_ms=2.0)
        tracer.close()

    def test_summarize(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        summary = summarize_events(iter_trace_events([path]))
        assert summary["events"] == 4
        assert summary["kinds"]["evaluate"] == 2
        cell = summary["cells"]["rs/add/titan_v/25/0"]
        assert cell["evaluate"] == 2
        assert cell["best_ms"] == 2.0

    def test_main_validate_ok(self, tmp_path, capsys):
        self._write_trace(tmp_path / "trace.jsonl")
        rc = read_main([str(tmp_path), "--validate", "--cells"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "schema: OK" in out
        assert "rs/add/titan_v/25/0" in out

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
