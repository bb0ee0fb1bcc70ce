"""repro.lint — zero-dependency determinism & fork-safety static analysis.

The paper's claims rest on exact replication: every experiment must be
re-runnable bit-for-bit.  The runtime enforces that dynamically (seeded
per-cell RNG streams, fingerprinted caches, atomic ledger writes,
picklable task objects, parity suites) — this package enforces the same
invariants *statically*, at the source level, before anything runs.

Built on stdlib :mod:`ast` only (no third-party dependencies, matching
the repo's no-deps policy):

* a rule registry (:mod:`repro.lint.rules`) with nine rules,
  REP001–REP009: eight reproducibility invariants of this codebase and
  one dead-code check (unused imports);
* a per-file engine (:mod:`repro.lint.engine`) that parses each module
  once and dispatches AST nodes to every interested rule;
* inline suppressions — ``# repro: noqa[REP002] reason`` — which only
  apply when a written justification is present (a reason-less noqa is
  inert and flagged as REP000);
* a committed baseline (:mod:`repro.lint.baseline`) for grandfathered
  findings, each entry requiring a written justification, matched by
  content so line drift never resurrects old findings;
* a CLI (``repro-lint`` / ``python -m repro.lint``) with text and JSON
  output and CI-friendly exit codes (0 clean, 1 new findings, 2 usage /
  baseline / parse errors).
"""

from __future__ import annotations

from .baseline import Baseline, BaselineError, load_baseline, write_baseline
from .engine import LintResult, lint_paths, lint_source
from .findings import Finding, ParseError
from .registry import ALL_RULES, Rule, get_rules, rule
from .suppressions import Suppression, parse_suppressions

__all__ = [
    "ALL_RULES",
    "Baseline",
    "BaselineError",
    "Finding",
    "LintResult",
    "ParseError",
    "Rule",
    "Suppression",
    "get_rules",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "parse_suppressions",
    "rule",
    "write_baseline",
]
