"""CLI contract: output formats and CI exit codes."""

import json

from repro.lint.cli import main

SOURCE_BAD = (
    "import time\n"
    "def f():\n"
    "    return time.time()\n"
)
SOURCE_CLEAN = "X = 1\n"


def _tree(tmp_path, source):
    pkg = tmp_path / "src" / "repro" / "experiments"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    return tmp_path / "src" / "repro"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = _tree(tmp_path, SOURCE_CLEAN)
        code = main([str(root), "--relative-to", str(tmp_path)])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = _tree(tmp_path, SOURCE_BAD)
        code = main([str(root), "--relative-to", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP002" in out
        assert "src/repro/experiments/mod.py:3" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        code = main([str(tmp_path / "nope")])
        assert code == 2

    def test_unknown_rule_exits_two(self, tmp_path):
        root = _tree(tmp_path, SOURCE_CLEAN)
        assert main([str(root), "--select", "REP999"]) == 2

    def test_unjustified_baseline_exits_two(self, tmp_path, capsys):
        root = _tree(tmp_path, SOURCE_BAD)
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(root), "--write-baseline", str(baseline)]
        ) == 0
        # fresh baseline still carries placeholders -> config error
        code = main([str(root), "--baseline", str(baseline)])
        assert code == 2
        assert "justification" in capsys.readouterr().err

    def test_baseline_gates_to_zero_and_detects_new(self, tmp_path):
        root = _tree(tmp_path, SOURCE_BAD)
        baseline = tmp_path / "baseline.json"
        main([str(root), "--write-baseline", str(baseline),
              "--relative-to", str(tmp_path)])
        doc = json.loads(baseline.read_text())
        for entry in doc["entries"]:
            entry["justification"] = "known: tracked"
        baseline.write_text(json.dumps(doc))
        assert main(
            [str(root), "--baseline", str(baseline),
             "--relative-to", str(tmp_path)]
        ) == 0
        # a new violation appears -> exit 1 again
        mod = root / "experiments" / "mod.py"
        mod.write_text(SOURCE_BAD + "\ndef g():\n    return time.time()\n")
        assert main(
            [str(root), "--baseline", str(baseline),
             "--relative-to", str(tmp_path)]
        ) == 1


class TestOutput:
    def test_json_format(self, tmp_path, capsys):
        root = _tree(tmp_path, SOURCE_BAD)
        code = main(
            [str(root), "--format", "json",
             "--relative-to", str(tmp_path)]
        )
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == {"REP002": 1}
        assert doc["files_checked"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "REP002"
        assert finding["path"] == "src/repro/experiments/mod.py"

    def test_stale_baseline_warns_but_passes(self, tmp_path, capsys):
        root = _tree(tmp_path, SOURCE_CLEAN)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "REP002",
                "path": "src/repro/experiments/mod.py",
                "code": "return time.time()",
                "justification": "was grandfathered, now fixed",
            }],
        }))
        code = main(
            [str(root), "--baseline", str(baseline),
             "--relative-to", str(tmp_path)]
        )
        assert code == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert f"REP00{i}" in out
