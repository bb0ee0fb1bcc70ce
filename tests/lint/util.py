"""Shared helpers for the lint test suite."""

from pathlib import Path

from repro.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"

#: Pretend in-repo path per fixture — rules scope themselves by
#: directory, so each snippet is linted as if it lived where the rule
#: applies (TP) and, for scope tests, where it does not.
FIXTURE_PATHS = {
    "rep001": "src/repro/search/fixture.py",
    "rep002": "src/repro/experiments/fixture.py",
    "rep003": "src/repro/obs/fixture.py",
    "rep004": "src/repro/gpu/fixture.py",
    "rep005": "src/repro/obs/fixture.py",
    "rep006": "src/repro/experiments/fixture.py",
    "rep007": "src/repro/experiments/fixture.py",
    "rep008": "src/repro/parallel/fixture.py",
    "rep009": "src/repro/reporting/fixture.py",
}


def lint_fixture(name: str, path: str = None, rules=None):
    """Lint one fixture file under its pretend in-repo path."""
    source = (FIXTURES / f"{name}.py").read_text()
    pretend = path or FIXTURE_PATHS[name.split("_")[0]]
    return lint_source(source, pretend, rules=rules)
