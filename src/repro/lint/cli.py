"""``repro-lint`` — the CLI entry point and CI gate.

Usage::

    repro-lint src/repro
    repro-lint src/repro --format json > lint-report.json
    repro-lint --list-rules

Exit codes (CI contract):

* ``0`` — no findings;
* ``1`` — findings, including REP000: a ``# repro: noqa`` without a
  written reason, or one that suppresses nothing;
* ``2`` — usage error: unknown rule, missing path, or a syntax error in
  an analyzed file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .engine import lint_paths
from .registry import get_rules, rule_catalog

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Zero-dependency determinism & fork-safety static analysis "
            "for the repro codebase (rules REP001-REP009)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--relative-to",
        metavar="DIR",
        default=None,
        help="report paths relative to this directory "
             "(default: current directory)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _report_text(result) -> None:
    for err in result.errors:
        print(f"error: {err.path}: {err.message}")
    for finding in result.findings:
        print(f"{finding.location()}: {finding.rule} {finding.message}")
        if finding.code:
            print(f"    {finding.code}")
    summary = ", ".join(
        f"{r}: {n}" for r, n in result.counts_by_rule().items()
    )
    print(
        f"checked {result.files_checked} files: "
        f"{len(result.findings)} finding(s)"
        + (f" ({summary})" if summary else "")
    )


def _report_json(result) -> None:
    doc = {
        "files_checked": result.files_checked,
        "counts": result.counts_by_rule(),
        "findings": [f.to_json() for f in result.findings],
        "errors": [e.to_json() for e in result.errors],
    }
    print(json.dumps(doc, indent=2, sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, summary in sorted(rule_catalog().items()):
            print(f"{rule_id}  {summary}")
        return 0

    paths = args.paths or ["src/repro"]
    try:
        rules = get_rules(
            args.select.split(",") if args.select else None
        )
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2

    relative_to = args.relative_to or os.getcwd()
    result = lint_paths(paths, rules=rules, relative_to=relative_to)

    if args.format == "json":
        _report_json(result)
    else:
        _report_text(result)

    if result.errors:
        return 2
    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
