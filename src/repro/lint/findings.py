"""Finding and error records produced by the lint engine."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``code`` is the stripped text of the first source line of the
    offending statement, printed under the location in text reports.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    code: str = ""
    end_line: int = field(default=0, compare=False)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "code": self.code,
        }


@dataclass(frozen=True, order=True)
class ParseError:
    """A file the engine could not analyze (I/O or syntax error)."""

    path: str
    message: str

    def to_json(self) -> dict:
        return {"path": self.path, "message": self.message}
