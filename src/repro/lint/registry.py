"""Rule base class and registry.

A rule is a small class declaring which AST node types it wants
(``interests``) plus three hooks — ``begin_module`` / ``visit`` /
``end_module``.  The engine parses each file once and dispatches every
node to every rule interested in its type, so adding a rule never adds
a traversal.

Register with the :func:`rule` decorator::

    @rule
    class MyRule(Rule):
        rule_id = "REP042"
        summary = "one-line description"
        interests = (ast.Call,)

        def visit(self, node, ctx):
            ...
            ctx.report(self.rule_id, node, "message")
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple, Type

from .context import ModuleContext

__all__ = ["Rule", "rule", "ALL_RULES", "get_rules"]


class Rule:
    """Base class for all lint rules.

    A fresh instance is created per linted module, so rules may keep
    per-module state on ``self`` without cross-file leakage.
    """

    rule_id: str = "REP000"
    summary: str = ""
    #: AST node types dispatched to :meth:`visit`.
    interests: Tuple[type, ...] = ()

    def begin_module(self, ctx: ModuleContext) -> None:
        """Called once before traversal — pre-scan the tree here."""

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        """Called for every node whose type is in ``interests``."""

    def end_module(self, ctx: ModuleContext) -> None:
        """Called once after traversal — report whole-module findings."""


ALL_RULES: List[Type[Rule]] = []


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator registering a rule; keeps the registry sorted."""
    if not cls.rule_id or not cls.rule_id.startswith("REP"):
        raise ValueError(f"rule {cls.__name__} has invalid id {cls.rule_id!r}")
    if any(existing.rule_id == cls.rule_id for existing in ALL_RULES):
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    ALL_RULES.append(cls)
    ALL_RULES.sort(key=lambda c: c.rule_id)
    return cls


def get_rules(
    select: Optional[Iterable[str]] = None,
) -> List[Type[Rule]]:
    """Registered rule classes, optionally filtered to ``select`` ids."""
    # Importing the rules module populates the registry on first use.
    from . import rules as _rules  # repro: noqa[REP009] importing the module registers every rule

    if select is None:
        return list(ALL_RULES)
    wanted = {s.strip() for s in select if s.strip()}
    unknown = wanted - {cls.rule_id for cls in ALL_RULES}
    if unknown:
        raise KeyError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}"
        )
    return [cls for cls in ALL_RULES if cls.rule_id in wanted]


def rule_catalog() -> Dict[str, str]:
    """``rule_id -> summary`` for every registered rule."""
    return {cls.rule_id: cls.summary for cls in get_rules()}
