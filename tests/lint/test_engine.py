"""Engine behavior: dispatch, ordering, error handling, path scoping."""

import textwrap

import pytest

from repro.lint import (
    ALL_RULES,
    get_rules,
    lint_paths,
    lint_source,
)
from repro.lint.registry import rule_catalog


class TestRegistry:
    def test_nine_rules_registered(self):
        ids = [cls.rule_id for cls in get_rules()]
        assert ids == sorted(ids)
        assert ids == [f"REP00{i}" for i in range(1, 10)]

    def test_every_rule_has_summary_and_interests(self):
        for cls in get_rules():
            assert cls.summary, cls.rule_id
            assert cls.interests, cls.rule_id

    def test_catalog_matches_registry(self):
        catalog = rule_catalog()
        assert set(catalog) == {cls.rule_id for cls in ALL_RULES}

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            get_rules(["REP999"])

    def test_select_subset(self):
        only = get_rules(["REP002", "REP008"])
        assert [c.rule_id for c in only] == ["REP002", "REP008"]


class TestLintSource:
    def test_findings_sorted_by_location(self):
        source = textwrap.dedent(
            """
            import time

            def b():
                t = time.time()
                return time.time() + t
            """
        )
        findings = lint_source(
            source, "src/repro/experiments/x.py"
        )
        assert [f.rule for f in findings] == ["REP002", "REP002"]
        assert findings == sorted(findings)

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            lint_source("def broken(:\n", "src/repro/x.py")

    def test_rules_filter(self):
        source = "import time\nt = time.time()\n"
        all_findings = lint_source(source, "src/repro/gpu/x.py")
        none = lint_source(
            source, "src/repro/gpu/x.py", rules=get_rules(["REP003"])
        )
        assert [f.rule for f in all_findings] == ["REP002"]
        assert none == []

    def test_alias_resolution(self):
        # numpy imported under an alias still resolves
        source = (
            "import numpy.random as nprand\n"
            "def f():\n"
            "    return nprand.rand(3)\n"
        )
        findings = lint_source(source, "src/repro/search/x.py")
        assert [f.rule for f in findings] == ["REP001"]


class TestLintPaths:
    def test_directory_walk_and_relative_paths(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "experiments"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        (pkg / "b.py").write_text("X = 1\n")
        result = lint_paths(
            [tmp_path / "src"], relative_to=tmp_path
        )
        assert result.files_checked == 2
        assert [f.rule for f in result.findings] == ["REP002"]
        assert result.findings[0].path == "src/repro/experiments/a.py"

    def test_missing_path_is_error(self, tmp_path):
        result = lint_paths([tmp_path / "nope"])
        assert result.findings == []
        assert len(result.errors) == 1

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([bad], relative_to=tmp_path)
        assert result.files_checked == 0
        assert len(result.errors) == 1
        assert "syntax error" in result.errors[0].message

    def test_counts_by_rule(self, tmp_path):
        f = tmp_path / "x.py"
        f.write_text(
            "import time\n"
            "def f():\n"
            "    try:\n"
            "        return time.time()\n"
            "    except:\n"
            "        pass\n"
        )
        # path outside repro: REP002 out of scope, REP008 repo-wide
        result = lint_paths([f], relative_to=tmp_path)
        assert result.counts_by_rule() == {"REP008": 1}
