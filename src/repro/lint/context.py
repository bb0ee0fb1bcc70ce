"""Per-module analysis context shared by every rule.

One :class:`ModuleContext` is built per linted file.  It owns the parsed
tree, the import table (so ``np.random.seed`` resolves to
``numpy.random.seed`` regardless of the alias), the enclosing-function
stack maintained by the engine during traversal, and the finding
collector rules report into.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from .findings import Finding

__all__ = ["ModuleContext"]


class ModuleContext:
    """Everything a rule needs to know about the module being linted."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 repro_relpath: Optional[str] = None) -> None:
        self.path = path
        self.source = source
        self.source_lines = source.splitlines()
        self.tree = tree
        #: Path relative to the package root, e.g. ``repro/obs/runs.py``
        #: — rules scope themselves by these components.  Derived from
        #: ``path`` when not given explicitly (fixture tests pass
        #: synthetic paths).
        self.repro_relpath = (
            repro_relpath
            if repro_relpath is not None
            else _derive_repro_relpath(path)
        )
        #: alias -> dotted module name, e.g. ``np`` -> ``numpy``.
        self.imports: Dict[str, str] = {}
        #: imported name -> dotted origin, e.g. ``datetime`` ->
        #: ``datetime.datetime`` for ``from datetime import datetime``.
        self.from_imports: Dict[str, str] = {}
        #: Enclosing function/lambda stack, innermost last.  Maintained
        #: by the engine during traversal.
        self.func_stack: List[ast.AST] = []
        self.findings: List[Finding] = []
        self._collect_imports(tree)

    # -- imports -------------------------------------------------------------

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                        if alias.asname
                        else alias.name.split(".")[0]
                    )
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import — keep the dotted tail
                    base = node.module
                else:
                    base = node.module
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )

    # -- name resolution -----------------------------------------------------

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, alias-resolved, or ``None``.

        ``np.random.seed`` (with ``import numpy as np``) resolves to
        ``numpy.random.seed``; ``datetime.now`` (with ``from datetime
        import datetime``) to ``datetime.datetime.now``; a bare local
        name resolves to itself.
        """
        parts: List[str] = []
        cur = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        base = cur.id
        resolved = self.imports.get(base) or self.from_imports.get(base)
        parts.append(resolved if resolved else base)
        return ".".join(reversed(parts))

    def call_name(self, node: ast.Call) -> Optional[str]:
        return self.resolve(node.func)

    # -- path scoping --------------------------------------------------------

    def in_dirs(self, *dirs: str) -> bool:
        """True when the module lives under ``repro/<dir>/`` for any dir."""
        parts = self.repro_relpath.split("/")
        return len(parts) >= 2 and parts[0] == "repro" and parts[1] in dirs

    def is_module(self, relpath: str) -> bool:
        return self.repro_relpath == relpath

    # -- reporting -----------------------------------------------------------

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1].strip()
        return ""

    def report(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                rule=rule_id,
                message=message,
                code=self.line_text(line),
                end_line=getattr(node, "end_lineno", None) or line,
            )
        )


def _derive_repro_relpath(path: str) -> str:
    """``src/repro/obs/runs.py`` -> ``repro/obs/runs.py`` (best effort)."""
    parts = path.replace("\\", "/").split("/")
    for i, part in enumerate(parts):
        if part == "repro":
            return "/".join(parts[i:])
    return "/".join(parts)
