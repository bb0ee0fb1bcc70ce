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

    def test_reasonless_suppression_exits_one(self, tmp_path, capsys):
        root = _tree(
            tmp_path,
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa[REP002]\n",
        )
        code = main([str(root), "--relative-to", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP000" in out and "REP002" in out

    def test_suppression_that_suppresses_nothing_exits_one(
        self, tmp_path, capsys
    ):
        # The violation was fixed but its exemption stayed behind.
        root = _tree(
            tmp_path,
            "X = 1  # repro: noqa[REP002] wall-clock boundary, was needed\n",
        )
        code = main([str(root), "--relative-to", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "REP000" in out
        assert "suppresses nothing" in out
        assert "src/repro/experiments/mod.py:1" in out
        # Only the rules that ran can leave a suppression unused.
        assert main(
            [str(root), "--select", "REP003",
             "--relative-to", str(tmp_path)]
        ) == 0


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

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 9):
            assert f"REP00{i}" in out
