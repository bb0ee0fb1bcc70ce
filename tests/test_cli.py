"""Tests for the repro-study command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.sample_sizes == [25, 50, 100]
        assert args.experiments_at_largest == 5
        assert args.workers == 1
        assert not args.paper_scale

    def test_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--kernels", "fft"])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--algorithms", "hill_climbing"])

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_rejects_bad_chunk_size(self, value, capsys):
        # --chunk-size is gone, so argparse rejects it with any value.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--chunk-size", value])
        assert "--chunk-size" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--batch-replications"],
            ["--executor", "thread"],
            ["--chunk-size", "3"],
            ["--adaptive"],
            ["--adaptive-batch", "2"],
        ],
    )
    def test_removed_options_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestMain:
    def test_tiny_run_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        rc = main(
            [
                "--algorithms", "random_search", "genetic_algorithm",
                "--kernels", "add",
                "--archs", "titan_v",
                "--sample-sizes", "25",
                "--experiments-at-largest", "2",
                "--image-size", "512",
                "--save", str(out),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "Fig.2" in captured
        assert "Fig.4a" in captured

        doc = json.loads(out.read_text())
        assert len(doc["results"]) == 4  # 2 algorithms x 2 experiments
        assert doc["optima"]

    def test_svg_export(self, tmp_path, capsys):
        rc = main(
            [
                "--algorithms", "random_search", "genetic_algorithm",
                "--kernels", "add",
                "--archs", "titan_v",
                "--sample-sizes", "25",
                "--experiments-at-largest", "2",
                "--image-size", "512",
                "--no-figures",
                "--svg-dir", str(tmp_path / "figs"),
            ]
        )
        assert rc == 0
        svgs = list((tmp_path / "figs").glob("*.svg"))
        # fig2 panel + fig3 + fig4a panel + fig4b panel.
        assert len(svgs) == 4

    def test_no_figures_flag(self, capsys):
        rc = main(
            [
                "--algorithms", "random_search",
                "--kernels", "add",
                "--archs", "titan_v",
                "--sample-sizes", "25",
                "--experiments-at-largest", "1",
                "--image-size", "512",
                "--no-figures",
            ]
        )
        assert rc == 0
        assert "Fig.2" not in capsys.readouterr().out

    def test_checkpoint_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "study.jsonl"
        argv = [
            "--algorithms", "random_search",
            "--kernels", "add",
            "--archs", "titan_v",
            "--sample-sizes", "25",
            "--experiments-at-largest", "2",
            "--image-size", "512",
            "--no-figures",
            "--checkpoint", str(ckpt),
        ]
        assert main(argv) == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert main(argv) == 0  # resume: every cell already complete
        assert "2 cells already complete" in capsys.readouterr().err

    def test_collect_policy_reports_failed_cells(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAIL_CELLS", "random_search/add/titan_v/25/0"
        )
        rc = main(
            [
                "--algorithms", "random_search",
                "--kernels", "add",
                "--archs", "titan_v",
                "--sample-sizes", "25",
                "--experiments-at-largest", "2",
                "--image-size", "512",
                "--no-figures",
                "--failure-policy", "collect",
            ]
        )
        # A collect-policy run that finishes with failed cells exits
        # non-zero (3) so schedulers and CI notice partial studies.
        assert rc == 3
        err = capsys.readouterr().err
        assert "FAILED CELLS: 1 of 2 cells failed" in err
        assert "random_search/add/titan_v/25/0" in err
        assert "InjectedFailure" in err

    def test_status_goes_to_stderr_stdout_stays_pipeable(self, capsys):
        rc = main(
            [
                "--algorithms", "random_search",
                "--kernels", "add",
                "--archs", "titan_v",
                "--sample-sizes", "25",
                "--experiments-at-largest", "1",
                "--image-size", "512",
                "--no-figures",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing but figures ever hits stdout
        assert "design:" in captured.err

    def test_quiet_silences_status(self, capsys):
        rc = main(
            [
                "--algorithms", "random_search",
                "--kernels", "add",
                "--archs", "titan_v",
                "--sample-sizes", "25",
                "--experiments-at-largest", "1",
                "--image-size", "512",
                "--no-figures",
                "--quiet",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""


class TestObservabilityFlags:
    ARGS = [
        "--algorithms", "random_search", "genetic_algorithm",
        "--kernels", "add",
        "--archs", "titan_v",
        "--sample-sizes", "25",
        "--experiments-at-largest", "2",
        "--image-size", "512",
        "--no-figures",
    ]

    def test_trace_dir_writes_schema_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import validate_trace_path

        trace = tmp_path / "trace"
        rc = main(self.ARGS + ["--trace-dir", str(trace)])
        assert rc == 0
        files = list(trace.glob("*.jsonl"))
        assert files
        assert validate_trace_path(trace) == []
        events = [
            json.loads(line)
            for f in files
            for line in f.read_text().splitlines()
        ]
        evals = [e for e in events if e["kind"] == "evaluate"]
        # Every cell's trace holds exactly sample_size evaluate events.
        per_cell = {}
        for e in evals:
            per_cell[e["cell"]] = per_cell.get(e["cell"], 0) + 1
        assert per_cell  # 4 cells
        assert all(n == 25 for n in per_cell.values())

    def test_metrics_out_prometheus(self, tmp_path, capsys):
        out = tmp_path / "metrics.prom"
        rc = main(self.ARGS + ["--metrics-out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# TYPE evaluations_total counter" in text
        # samples x experiments x algorithms = 25 * 2 * 2.
        assert "evaluations_total 100" in text

    def test_metrics_out_json(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        rc = main(self.ARGS + ["--metrics-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        series = doc["evaluations_total"]["series"]
        assert series[0]["value"] == 100.0

    @pytest.mark.parametrize("suffix", [".prom", ".json"])
    def test_metrics_out_and_ledger_render_saved_counters(
        self, tmp_path, capsys, suffix
    ):
        from repro.experiments import StudyResults
        from repro.obs.runs import main as runs_main

        out = tmp_path / f"metrics{suffix}"
        ledger = tmp_path / "ledger"
        saved = tmp_path / "results.json"
        rc = main(self.ARGS + [
            "--metrics-out", str(out), "--run-ledger", str(ledger),
            "--save", str(saved),
        ])
        assert rc == 0
        run_id = re.search(
            r"run ([0-9a-f]{12}) recorded in", capsys.readouterr().err
        ).group(1)
        results = StudyResults.load(saved)
        assert results.metadata["run_id"] == run_id
        assert results.metadata["run_manifest"].endswith(f"{run_id}.json")
        doc = results.metadata["metrics"]
        text = out.read_text()
        if suffix == ".json":
            assert text == json.dumps(doc, indent=2, sort_keys=True)
        else:
            types = [ln for ln in text.splitlines() if ln.startswith("# TYPE")]
            assert len(types) == len(doc)
            assert all(ln.endswith(" counter") for ln in types)
            assert "\nevaluations_total 100\n" in text
        assert runs_main(["list", str(ledger)]) == 0
        assert run_id in capsys.readouterr().out

    def test_convergence_prints_plots(self, capsys):
        rc = main(self.ARGS + ["--convergence"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Convergence add on titan_v" in out
        assert "evaluation" in out

    def test_convergence_svg_export(self, tmp_path, capsys):
        rc = main(
            self.ARGS
            + ["--convergence", "--svg-dir", str(tmp_path / "figs")]
        )
        assert rc == 0
        svgs = list((tmp_path / "figs").glob("convergence_*.svg"))
        assert len(svgs) == 1


class TestObservabilityV2Flags:
    ARGS = [
        "--algorithms", "random_search",
        "--kernels", "add",
        "--archs", "titan_v",
        "--sample-sizes", "25",
        "--experiments-at-largest", "2",
        "--image-size", "512",
        "--no-figures",
    ]

    def test_trace_level_spans_records_span_tree(self, tmp_path, capsys):
        from repro.obs import build_span_forest, validate_trace_path
        from repro.obs.read import iter_trace_events

        trace = tmp_path / "trace"
        rc = main(self.ARGS + [
            "--trace-dir", str(trace), "--trace-level", "spans",
        ])
        assert rc == 0
        assert validate_trace_path(trace) == []
        events = list(iter_trace_events([trace]))
        assert all(e["kind"] == "span" for e in events)
        roots = build_span_forest(events)
        assert [r.name for r in roots] == ["study"]
        names = {c.subject for c in roots[0].children}
        assert "experiments" in names

    def test_profile_report_on_stderr(self, capsys):
        rc = main(self.ARGS + ["--profile"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "profile:" in err
        assert "experiments" in err

    def test_profile_out_json(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        rc = main(self.ARGS + ["--profile-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "experiments" in doc["phases"]

    def test_profile_out_svg_from_spans(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        out = tmp_path / "flame.svg"
        rc = main(self.ARGS + [
            "--trace-dir", str(trace), "--trace-level", "spans",
            "--profile-out", str(out),
        ])
        assert rc == 0
        assert out.read_text().startswith("<svg")

    def test_profile_out_svg_without_trace_dir_has_phases(
        self, tmp_path, capsys
    ):
        out = tmp_path / "flame.svg"
        rc = main(self.ARGS + ["--profile-out", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        assert "no spans" not in svg
        for phase in ("optima", "experiments"):
            assert phase in svg

    def test_profile_out_svg_at_default_trace_level(self, tmp_path, capsys):
        trace = tmp_path / "trace"
        out = tmp_path / "flame.svg"
        rc = main(self.ARGS + [
            "--trace-dir", str(trace), "--profile-out", str(out),
        ])
        assert rc == 0
        svg = out.read_text()
        assert "no spans" not in svg
        assert "experiments" in svg

    def test_run_ledger_records_manifest(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        rc = main(self.ARGS + ["--run-ledger", str(ledger)])
        assert rc == 0
        manifests = list(ledger.glob("*.json"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        assert doc["config"]["kernels"] == ["add"]
        assert doc["argv"] == self.ARGS + ["--run-ledger", str(ledger)]
        assert f"run {doc['run_id']}" in capsys.readouterr().err

    def test_watch_without_sources_exits_2(self, tmp_path, capsys):
        rc = main(["--watch"])
        assert rc == 2
        assert "--watch needs" in capsys.readouterr().err

    def test_watch_completed_study(self, tmp_path, capsys):
        ck = tmp_path / "ck.jsonl"
        rc = main(self.ARGS + ["--checkpoint", str(ck)])
        assert rc == 0
        rc = main([
            "--watch", "--checkpoint", str(ck), "--watch-interval", "0",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "study complete" in err
        assert "cells 2/2" in err
