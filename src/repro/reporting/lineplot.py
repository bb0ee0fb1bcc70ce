"""ASCII line plots for aggregate series (the paper's Fig. 3 shape).

Renders one or more (x, y) series — optionally with confidence bands —
onto a character canvas.  Intended for terminal output of benchmark runs;
the underlying series are also exportable as CSV.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = ["Series", "LinePlot", "render_lineplot"]

_MARKERS = "ox+*#@%&"


@dataclass(frozen=True)
class Series:
    """One labelled line, with an optional confidence band."""

    label: str
    x: Sequence[float]
    y: Sequence[float]
    y_low: Optional[Sequence[float]] = None
    y_high: Optional[Sequence[float]] = None

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have equal length")
        for band in (self.y_low, self.y_high):
            if band is not None and len(band) != len(self.x):
                raise ValueError("confidence band length mismatch")


@dataclass(frozen=True)
class LinePlot:
    title: str
    series: Sequence[Series]
    x_label: str = ""
    y_label: str = ""

    def to_csv(self) -> str:
        """Long-format CSV: series,x,y,y_low,y_high."""
        out = io.StringIO()
        out.write("series,x,y,y_low,y_high\n")
        for s in self.series:
            for i, (xv, yv) in enumerate(zip(s.x, s.y)):
                lo = s.y_low[i] if s.y_low is not None else ""
                hi = s.y_high[i] if s.y_high is not None else ""
                out.write(f"{s.label},{xv},{yv},{lo},{hi}\n")
        return out.getvalue()


def render_lineplot(
    plot: LinePlot, width: int = 72, height: int = 20
) -> str:
    """Render onto a character canvas with a legend.

    X positions use the *index* of each x value (sample sizes are
    log-spaced in the paper, so even spacing reads better than linear).
    """
    if not plot.series:
        raise ValueError("line plot needs at least one series")
    all_y: List[float] = []
    for s in plot.series:
        all_y.extend(float(v) for v in s.y)
        if s.y_low is not None:
            all_y.extend(float(v) for v in s.y_low)
        if s.y_high is not None:
            all_y.extend(float(v) for v in s.y_high)
    y_min, y_max = min(all_y), max(all_y)
    if y_max == y_min:
        y_max = y_min + 1.0

    x_values = list(plot.series[0].x)
    n_x = max(len(s.x) for s in plot.series)
    canvas = [[" "] * width for _ in range(height)]

    def col_of(i: int) -> int:
        return int(round(i / max(n_x - 1, 1) * (width - 1)))

    def row_of(y: float) -> int:
        frac = (y - y_min) / (y_max - y_min)
        return int(round((height - 1) * (1.0 - frac)))

    for si, s in enumerate(plot.series):
        marker = _MARKERS[si % len(_MARKERS)]
        cols = [col_of(i) for i in range(len(s.x))]
        rows = [row_of(float(v)) for v in s.y]
        # Connect consecutive points with interpolated dots.
        for i in range(len(cols) - 1):
            c0, c1 = cols[i], cols[i + 1]
            r0, r1 = rows[i], rows[i + 1]
            steps = max(abs(c1 - c0), 1)
            for t in range(steps + 1):
                c = c0 + (c1 - c0) * t // steps
                r = r0 + (r1 - r0) * t // steps
                if canvas[r][c] == " ":
                    canvas[r][c] = "."
        for c, r in zip(cols, rows):
            canvas[r][c] = marker

    lines = [plot.title]
    for r, row in enumerate(canvas):
        y_here = y_max - (y_max - y_min) * r / (height - 1)
        prefix = f"{y_here:10.2f} |"
        lines.append(prefix + "".join(row))
    axis = " " * 11 + "+" + "-" * width
    lines.append(axis)
    # Reserve room past the right edge so the last tick label fits whole.
    max_label = max((len(str(x)) for x in x_values), default=0)
    tick_line = [" "] * (width + 12 + max_label)
    for i, xv in enumerate(x_values):
        c = 12 + col_of(i)
        text = str(xv)
        for j, ch in enumerate(text):
            if c + j < len(tick_line):
                tick_line[c + j] = ch
    lines.append("".join(tick_line))
    if plot.x_label:
        lines.append(" " * 12 + plot.x_label)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {s.label}"
        for i, s in enumerate(plot.series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)
