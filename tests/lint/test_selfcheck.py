"""Self-check: ``src/repro`` lints clean.

This is the test CI's lint job mirrors — if it fails, a new violation
slipped in (fix it or justify an inline suppression), or a violation was
fixed without removing its suppression (remove the comment).
"""

from pathlib import Path

from repro.lint import lint_paths, parse_suppressions
from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_source_tree_is_clean():
    result = lint_paths([SRC], relative_to=REPO_ROOT)
    assert result.errors == []
    assert result.findings == [], [
        f"{f.rule} {f.location()}: {f.message}" for f in result.findings
    ]


def test_cli_gate_exits_zero(capsys):
    code = main([str(SRC), "--relative-to", str(REPO_ROOT)])
    assert code == 0, capsys.readouterr().out


def test_every_inline_suppression_has_a_reason():
    # REP000 (reason-less or unused noqa) must never appear in the tree:
    # the self-check above would catch it, but assert it directly for a
    # clearer failure message.
    result = lint_paths([SRC], relative_to=REPO_ROOT)
    bare = [f for f in result.findings if f.rule == "REP000"]
    assert bare == [], [f.location() for f in bare]


def test_every_suppression_reason_is_a_sentence():
    # inline suppressions are the only committed exemptions; each one's
    # reason is a sentence, not a token
    short = [
        f"{path.relative_to(REPO_ROOT)}:{supp.line}: {supp.reason!r}"
        for path in sorted(SRC.rglob("*.py"))
        for supp in parse_suppressions(
            path.read_text(encoding="utf-8")
        ).values()
        if len(supp.reason) <= 20
    ]
    assert short == []
