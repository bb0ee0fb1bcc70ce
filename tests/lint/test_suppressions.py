"""Inline ``# repro: noqa[RULE] reason`` suppression semantics."""

from repro.lint import lint_source, parse_suppressions

PATH = "src/repro/experiments/x.py"


def _lint(source):
    return lint_source(source, PATH)


class TestParse:
    def test_parse_rules_and_reason(self):
        supps = parse_suppressions(
            "x = 1  # repro: noqa[REP002] boundary timestamp\n"
        )
        assert supps[1].rules == ("REP002",)
        assert supps[1].reason == "boundary timestamp"
        assert supps[1].justified

    def test_parse_multiple_rules(self):
        supps = parse_suppressions(
            "x = 1  # repro: noqa[REP002, REP003] both fine here\n"
        )
        assert supps[1].rules == ("REP002", "REP003")

    def test_unrelated_comments_ignored(self):
        assert parse_suppressions("x = 1  # noqa: BLE001\n") == {}
        assert parse_suppressions("x = 1  # plain comment\n") == {}

    def test_noqa_quoted_in_a_string_is_not_a_suppression(self):
        assert parse_suppressions(
            '"""Write ``# repro: noqa[REP002] reason`` on the line."""\n'
            'MSG = "# repro: noqa[REP002] why this is safe"\n'
        ) == {}


class TestApply:
    def test_justified_suppression_applies(self):
        findings = _lint(
            "import time\n"
            "def f():\n"
            "    return time.time()  "
            "# repro: noqa[REP002] single boundary\n"
        )
        assert findings == []

    def test_reasonless_suppression_is_inert_and_flagged(self):
        findings = _lint(
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa[REP002]\n"
        )
        rules = sorted(f.rule for f in findings)
        # original finding stands AND the bare noqa is itself flagged
        assert rules == ["REP000", "REP002"]

    def test_wrong_rule_does_not_suppress(self):
        findings = _lint(
            "import time\n"
            "def f():\n"
            "    return time.time()  "
            "# repro: noqa[REP003] wrong rule entirely\n"
        )
        # the finding stands, and the noqa that covers nothing is flagged
        assert [f.rule for f in findings] == ["REP000", "REP002"]

    def test_multiline_statement_comment_on_any_line(self):
        findings = _lint(
            "import json, hashlib\n"
            "def fingerprint(doc):\n"
            "    return hashlib.sha256(\n"
            "        json.dumps(doc)  "
            "# repro: noqa[REP004] fixture: frozen form\n"
            "        .encode()\n"
            "    ).hexdigest()\n"
        )
        # both REP004 findings (sort_keys + separators) share the node
        assert findings == []

    def test_suppression_only_covers_its_own_line_span(self):
        findings = _lint(
            "import time\n"
            "def f():\n"
            "    a = time.time()  # repro: noqa[REP002] covered\n"
            "    b = time.time()\n"
            "    return a + b\n"
        )
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_suppression_that_suppresses_nothing_is_flagged(self):
        findings = _lint(
            "import time\n"
            "def f():\n"
            "    a = time.time()  # repro: noqa[REP002] covered\n"
            "    return 1  # repro: noqa[REP002] nothing left to cover\n"
        )
        assert [(f.rule, f.line) for f in findings] == [("REP000", 4)]
        assert "suppresses nothing" in findings[0].message

    def test_only_the_unused_rule_of_a_multi_rule_noqa_is_named(self):
        (finding,) = _lint(
            "import time\n"
            "def f():\n"
            "    return time.time()  "
            "# repro: noqa[REP002, REP003] boundary read, no write\n"
        )
        assert finding.rule == "REP000"
        assert "REP003" in finding.message
        assert "REP002" not in finding.message

    def test_unused_check_covers_only_rules_that_ran(self):
        source = "X = 1  # repro: noqa[REP002] was a boundary read\n"
        assert lint_source(source, PATH, rules=[]) == []
        assert [f.rule for f in _lint(source)] == ["REP000"]
