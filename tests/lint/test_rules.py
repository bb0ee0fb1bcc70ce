"""Per-rule fixture tests: every rule has paired TP / FP snippets.

The TP fixture must produce at least one finding of its rule (with the
exact expected count, so rules do not silently over- or under-fire);
the FP fixture must produce none.
"""

import pytest

from .util import lint_fixture

# (fixture stem, rule id, expected TP finding count)
RULE_CASES = [
    ("rep001", "REP001", 4),
    ("rep002", "REP002", 3),
    ("rep003", "REP003", 3),
    ("rep004", "REP004", 6),
    ("rep005", "REP005", 5),
    ("rep006", "REP006", 5),
    ("rep007", "REP007", 4),
    ("rep008", "REP008", 3),
    ("rep009", "REP009", 6),
]


@pytest.mark.parametrize(
    "stem,rule_id,expected", RULE_CASES, ids=[c[1] for c in RULE_CASES]
)
class TestRuleFixtures:
    def test_true_positive(self, stem, rule_id, expected):
        findings = lint_fixture(f"{stem}_tp")
        of_rule = [f for f in findings if f.rule == rule_id]
        assert len(of_rule) == expected, [
            f"{f.rule} {f.location()} {f.message}" for f in findings
        ]
        # no *other* rule misfires on the TP fixture either
        assert all(f.rule == rule_id for f in findings)

    def test_false_positive(self, stem, rule_id, expected):
        findings = lint_fixture(f"{stem}_fp")
        assert findings == [], [
            f"{f.rule} {f.location()} {f.message}" for f in findings
        ]


class TestRuleScoping:
    def test_rep001_allowed_in_rng_module(self):
        # The blessed module may touch the RNG machinery directly.
        findings = lint_fixture(
            "rep001_tp", path="src/repro/parallel/rng.py"
        )
        assert findings == []

    def test_rep002_out_of_scope_dir(self):
        # Wall clocks outside deterministic dirs (e.g. reporting) pass.
        findings = lint_fixture(
            "rep002_tp", path="src/repro/reporting/fixture.py"
        )
        assert findings == []

    def test_rep007_out_of_scope_dir(self):
        findings = lint_fixture(
            "rep007_tp", path="src/repro/reporting/fixture.py"
        )
        assert findings == []

    def test_rep003_exempt_in_io_module(self):
        findings = lint_fixture("rep003_tp", path="src/repro/io.py")
        assert findings == []

    def test_rep009_exempt_in_package_init(self):
        # A package __init__ imports names in order to re-export them.
        findings = lint_fixture(
            "rep009_tp", path="src/repro/search/__init__.py"
        )
        assert findings == []

    def test_findings_carry_code_and_location(self):
        findings = lint_fixture("rep001_tp")
        first = findings[0]
        assert first.path == "src/repro/search/fixture.py"
        assert first.line > 0 and first.col > 0
        assert "np.random.seed" in first.code
