# False positives REP009 must NOT flag: every imported name is read.
from __future__ import annotations

import os.path
from dataclasses import dataclass
from json import JSONDecodeError
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

__all__ = ["JSONDecodeError", "Point", "scaled"]


@dataclass
class Point:
    x: float
    ratio: "Fraction" = None


def scaled(value: "Decimal", path: str) -> "Optional[Decimal]":
    return value if os.path.exists(path) else None
