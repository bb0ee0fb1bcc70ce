"""The lint engine: parse once per file, dispatch nodes to rules.

Deterministic by construction — files are visited in sorted order,
findings are sorted by (path, line, col, rule), and nothing here reads
the clock, the environment, or global RNG state (the linter holds
itself to its own rules; ``repro-lint src/repro`` includes this package).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from .context import ModuleContext
from .findings import Finding, ParseError
from .registry import Rule, get_rules
from .suppressions import parse_suppressions

__all__ = ["LintResult", "lint_source", "lint_paths"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: Meta-rule id for a suppression comment with no written justification
#: or one that suppresses nothing.
SUPPRESSION_RULE = "REP000"


@dataclass
class LintResult:
    """Findings plus per-file errors for one lint invocation."""

    findings: List[Finding] = field(default_factory=list)
    errors: List[ParseError] = field(default_factory=list)
    files_checked: int = 0

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.errors.extend(other.errors)
        self.files_checked += other.files_checked

    def sort(self) -> None:
        self.findings.sort()
        self.errors.sort()

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))


class _Dispatcher(ast.NodeVisitor):
    """Single traversal; maintains the function stack on the context."""

    def __init__(self, ctx: ModuleContext, rules: Sequence[Rule]) -> None:
        self._ctx = ctx
        self._by_type: Dict[type, List[Rule]] = {}
        for r in rules:
            for node_type in r.interests:
                self._by_type.setdefault(node_type, []).append(r)

    def generic_visit(self, node: ast.AST) -> None:
        for r in self._by_type.get(type(node), ()):
            r.visit(node, self._ctx)
        if isinstance(node, _FUNC_NODES):
            self._ctx.func_stack.append(node)
            try:
                super().generic_visit(node)
            finally:
                self._ctx.func_stack.pop()
        else:
            super().generic_visit(node)


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Type[Rule]]] = None,
    repro_relpath: Optional[str] = None,
) -> List[Finding]:
    """Lint one module's source; returns sorted, suppression-filtered
    findings.

    ``path`` is the path recorded on findings; ``repro_relpath``
    overrides package-relative scoping for callers linting synthetic
    sources (fixture tests).

    Raises :class:`SyntaxError` when the source does not parse.
    """
    rule_classes = get_rules() if rules is None else list(rules)
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(
        path, source, tree, repro_relpath=repro_relpath
    )
    instances = [cls() for cls in rule_classes]
    for inst in instances:
        inst.begin_module(ctx)
    _Dispatcher(ctx, instances).visit(tree)
    for inst in instances:
        inst.end_module(ctx)
    return _apply_suppressions(ctx, {cls.rule_id for cls in rule_classes})


def _apply_suppressions(ctx: ModuleContext, ran: Set[str]) -> List[Finding]:
    """Drop suppressed findings; report every noqa that is reason-less
    or, for a rule in ``ran``, suppressed nothing."""
    suppressions = parse_suppressions(ctx.source)
    used: Set[Tuple[int, str]] = set()
    kept: List[Finding] = []
    for finding in ctx.findings:
        last = max(finding.end_line, finding.line)
        covering = [
            line for line in range(finding.line, last + 1)
            if line in suppressions
            and suppressions[line].covers(finding.rule)
        ]
        used.update((line, finding.rule) for line in covering)
        if not covering:
            kept.append(finding)
    for supp in suppressions.values():
        if not supp.justified:
            message = (
                "suppression without a written justification — "
                "add a reason after the bracket: "
                "# repro: noqa[RULE] why this is safe"
            )
        else:
            unused = [
                r for r in supp.rules
                if r in ran and (supp.line, r) not in used
            ]
            if not unused:
                continue
            message = (
                f"suppression of {', '.join(unused)} suppresses nothing "
                f"on this statement — drop it from the noqa"
            )
        kept.append(
            Finding(
                path=ctx.path,
                line=supp.line,
                col=1,
                rule=SUPPRESSION_RULE,
                message=message,
                code=ctx.line_text(supp.line),
                end_line=supp.line,
            )
        )
    kept.sort()
    return kept


def _iter_python_files(target: Path) -> Iterable[Path]:
    if target.is_file():
        yield target
        return
    yield from sorted(
        p for p in target.rglob("*.py") if "__pycache__" not in p.parts
    )


def _display_path(path: Path, relative_to: Optional[Path]) -> str:
    if relative_to is not None:
        try:
            return path.resolve().relative_to(
                relative_to.resolve()
            ).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(
    paths: Sequence[object],
    rules: Optional[Sequence[Type[Rule]]] = None,
    relative_to: Optional[object] = None,
) -> LintResult:
    """Lint files and/or directory trees; returns a sorted result.

    Finding paths are reported relative to ``relative_to`` (so reports
    are stable no matter where the tool is invoked from); paths outside
    it fall back to their given form.
    """
    rel = Path(relative_to) if relative_to is not None else None
    result = LintResult()
    for target in paths:
        target = Path(target)
        if not target.exists():
            result.errors.append(
                ParseError(path=str(target), message="path does not exist")
            )
            continue
        for file_path in _iter_python_files(target):
            display = _display_path(file_path, rel)
            try:
                source = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                result.errors.append(
                    ParseError(path=display, message=str(err))
                )
                continue
            try:
                findings = lint_source(source, display, rules=rules)
            except SyntaxError as err:
                result.errors.append(
                    ParseError(
                        path=display,
                        message=f"syntax error: {err.msg} "
                                f"(line {err.lineno})",
                    )
                )
                continue
            result.files_checked += 1
            result.findings.extend(findings)
    result.sort()
    return result
