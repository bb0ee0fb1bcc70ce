"""``repro-lint`` — the CLI entry point and CI gate.

Usage::

    repro-lint src/repro --baseline lint-baseline.json
    repro-lint src/repro --format json > lint-report.json
    repro-lint --list-rules
    repro-lint src/repro --write-baseline lint-baseline.json

Exit codes (CI contract):

* ``0`` — no findings beyond the baseline;
* ``1`` — new (non-baselined, non-suppressed) findings;
* ``2`` — usage/configuration error: missing path, syntax error in an
  analyzed file, unreadable baseline, or a baseline entry without a
  written justification.

Stale baseline entries (fixed violations still listed) are reported as
warnings but do not fail the run — the self-check test keeps the
committed file pruned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .baseline import Baseline, BaselineError, load_baseline, write_baseline
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
        "--baseline",
        metavar="FILE",
        help="baseline JSON of grandfathered findings",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="write current findings as a new baseline (entries carry a "
             "placeholder justification that must be filled in) and exit",
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


def _report_text(result, new_findings, stale, errors) -> None:
    for err in errors:
        print(f"error: {err.path}: {err.message}")
    for finding in new_findings:
        print(f"{finding.location()}: {finding.rule} {finding.message}")
        if finding.code:
            print(f"    {finding.code}")
    for entry in stale:
        print(
            f"warning: stale baseline entry ({entry.rule} at "
            f"{entry.path}): no longer found — remove it"
        )
    counts = {}
    for finding in new_findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    summary = ", ".join(f"{r}: {n}" for r, n in sorted(counts.items()))
    baselined = len(result.findings) - len(new_findings)
    print(
        f"checked {result.files_checked} files: "
        f"{len(new_findings)} finding(s)"
        + (f" ({summary})" if summary else "")
        + (f", {baselined} baselined" if baselined else "")
        + (f", {len(stale)} stale baseline entr(y/ies)" if stale else "")
    )


def _report_json(result, new_findings, stale, errors) -> None:
    doc = {
        "files_checked": result.files_checked,
        "counts": {},
        "findings": [f.to_json() for f in new_findings],
        "baselined": len(result.findings) - len(new_findings),
        "stale_baseline": [e.to_json() for e in stale],
        "errors": [e.to_json() for e in errors],
    }
    for finding in new_findings:
        doc["counts"][finding.rule] = doc["counts"].get(finding.rule, 0) + 1
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

    if args.write_baseline:
        write_baseline(result.findings, args.write_baseline)
        print(
            f"wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}; fill in every justification "
            f"before committing (placeholders fail validation)"
        )
        return 0

    baseline = Baseline()
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    new_findings, stale = baseline.filter(result.findings)
    if args.format == "json":
        _report_json(result, new_findings, stale, result.errors)
    else:
        _report_text(result, new_findings, stale, result.errors)

    if result.errors:
        return 2
    return 1 if new_findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
