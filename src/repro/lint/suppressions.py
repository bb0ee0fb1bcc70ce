"""Inline suppression comments: ``# repro: noqa[RULE,...] reason``.

Policy: a suppression **must** carry a written justification.  A
``# repro: noqa[REP002]`` with no trailing reason does *not* suppress —
instead the engine reports REP000 (unjustified suppression) at that
line, so the discipline is self-enforcing.  A justified suppression that
no longer suppresses anything is reported too (REP000 again), so fixed
violations never leave a stale exemption behind.

A suppression applies to a finding when the comment sits on any physical
line of the offending statement (multi-line calls included) and names
the finding's rule.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Suppression", "parse_suppressions", "NOQA_RE"]

NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa\[(?P<rules>[A-Z0-9,\s]+)\]\s*(?P<reason>.*)$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed noqa comment."""

    line: int
    rules: Tuple[str, ...]
    reason: str

    @property
    def justified(self) -> bool:
        return bool(self.reason.strip())

    def covers(self, rule_id: str) -> bool:
        return self.justified and rule_id in self.rules


def parse_suppressions(source: str) -> Dict[int, Suppression]:
    """All noqa comments in ``source``, keyed by 1-based line number.

    Only comment tokens are read, so a ``repro: noqa`` quoted in a
    docstring or string literal is text, not a suppression.  Raises
    :class:`SyntaxError` when ``source`` does not tokenize.
    """
    out: Dict[int, Suppression] = {}
    if "noqa" not in source:
        return out
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except tokenize.TokenError as err:
        raise SyntaxError(err.args[0]) from err
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = NOQA_RE.search(tok.string)
        if not match:
            continue
        lineno = tok.start[0]
        rules = tuple(
            part.strip()
            for part in match.group("rules").split(",")
            if part.strip()
        )
        out[lineno] = Suppression(
            line=lineno,
            rules=rules,
            reason=match.group("reason").strip(" -\t"),
        )
    return out
