"""SVG rendering of figures — graphical artifacts without matplotlib.

The offline environment has no plotting stack, so the reporting layer
emits SVG directly: heatmaps (the paper's Figs. 2/4) and line plots with
confidence bands (Fig. 3).  Output is plain standalone SVG, viewable in
any browser, written by :func:`save_figure_svg` next to the benchmark
outputs.

Colours use a perceptually-reasonable two-ramp scheme hard-coded here;
everything else (scales, ticks, legends) is computed from the data.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..io import atomic_write_text
from .heatmap import Heatmap
from .lineplot import LinePlot

__all__ = ["heatmap_svg", "lineplot_svg", "save_figure_svg"]

_FONT = "font-family='Helvetica,Arial,sans-serif'"
_SERIES_COLORS = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def _ramp_color(t: float) -> str:
    """0 -> pale yellow, 1 -> deep blue (higher = better convention)."""
    t = float(np.clip(t, 0.0, 1.0))
    # Two-segment ramp through a teal midpoint.
    if t < 0.5:
        u = t / 0.5
        r = _lerp(0xFF, 0x41, u)
        g = _lerp(0xF7, 0xB6, u)
        b = _lerp(0xBC, 0xC4, u)
    else:
        u = (t - 0.5) / 0.5
        r = _lerp(0x41, 0x08, u)
        g = _lerp(0xB6, 0x30, u)
        b = _lerp(0xC4, 0x6D, u)
    return f"#{int(r):02x}{int(g):02x}{int(b):02x}"


def _esc(text: str) -> str:
    return html.escape(str(text), quote=True)


def heatmap_svg(
    heatmap: Heatmap,
    cell_w: int = 64,
    cell_h: int = 28,
    fmt: str = "{:.1f}",
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
) -> str:
    """Standalone SVG for one heatmap panel (labels + shaded cells)."""
    values = np.asarray(heatmap.values, dtype=np.float64)
    rows, cols = values.shape
    finite = values[np.isfinite(values)]
    lo = (float(finite.min()) if finite.size else 0.0) if vmin is None else vmin
    hi = (float(finite.max()) if finite.size else 1.0) if vmax is None else vmax
    span = hi - lo if hi > lo else 1.0

    label_w = 90
    title_h = 26
    header_h = 22
    width = label_w + cols * cell_w + 10
    height = title_h + header_h + rows * cell_h + 10

    parts: List[str] = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<text x='6' y='17' {_FONT} font-size='13' font-weight='bold'>"
        f"{_esc(heatmap.title)}</text>",
    ]
    for j, col in enumerate(heatmap.col_labels):
        cx = label_w + j * cell_w + cell_w / 2
        parts.append(
            f"<text x='{cx}' y='{title_h + 14}' {_FONT} font-size='11' "
            f"text-anchor='middle'>{_esc(col)}</text>"
        )
    for i, row_label in enumerate(heatmap.row_labels):
        cy = title_h + header_h + i * cell_h + cell_h / 2 + 4
        parts.append(
            f"<text x='{label_w - 6}' y='{cy}' {_FONT} font-size='11' "
            f"text-anchor='end'>{_esc(row_label)}</text>"
        )
        for j in range(cols):
            v = values[i, j]
            x = label_w + j * cell_w
            y = title_h + header_h + i * cell_h
            if np.isfinite(v):
                fill = _ramp_color((v - lo) / span)
                text = fmt.format(v)
                # Dark cells get light text.
                t_norm = (v - lo) / span
                color = "#ffffff" if t_norm > 0.6 else "#222222"
            else:
                fill, text, color = "#dddddd", "n/a", "#222222"
            parts.append(
                f"<rect x='{x}' y='{y}' width='{cell_w - 2}' "
                f"height='{cell_h - 2}' rx='3' fill='{fill}'/>"
            )
            parts.append(
                f"<text x='{x + cell_w / 2 - 1}' y='{y + cell_h / 2 + 4}' "
                f"{_FONT} font-size='11' text-anchor='middle' "
                f"fill='{color}'>{_esc(text)}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts)


def lineplot_svg(
    plot: LinePlot,
    width: int = 640,
    height: int = 400,
) -> str:
    """Standalone SVG for a line plot with optional confidence bands."""
    if not plot.series:
        raise ValueError("line plot needs at least one series")
    margin_l, margin_r, margin_t, margin_b = 60, 16, 36, 52
    pw = width - margin_l - margin_r
    ph = height - margin_t - margin_b

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
    pad = 0.05 * (y_max - y_min)
    y_min, y_max = y_min - pad, y_max + pad

    x_values = list(plot.series[0].x)
    n_x = max(len(s.x) for s in plot.series)

    def px(i: int) -> float:
        return margin_l + i / max(n_x - 1, 1) * pw

    def py(v: float) -> float:
        return margin_t + (1.0 - (v - y_min) / (y_max - y_min)) * ph

    parts: List[str] = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
        f"height='{height}' viewBox='0 0 {width} {height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<text x='{margin_l}' y='20' {_FONT} font-size='13' "
        f"font-weight='bold'>{_esc(plot.title)}</text>",
        f"<rect x='{margin_l}' y='{margin_t}' width='{pw}' height='{ph}' "
        f"fill='none' stroke='#999'/>",
    ]

    # Horizontal gridlines + y tick labels.
    for k in range(5):
        v = y_min + (y_max - y_min) * k / 4
        y = py(v)
        parts.append(
            f"<line x1='{margin_l}' y1='{y}' x2='{margin_l + pw}' "
            f"y2='{y}' stroke='#eee'/>"
        )
        parts.append(
            f"<text x='{margin_l - 6}' y='{y + 4}' {_FONT} font-size='10' "
            f"text-anchor='end'>{v:.1f}</text>"
        )
    # X ticks.
    for i, xv in enumerate(x_values):
        parts.append(
            f"<text x='{px(i)}' y='{margin_t + ph + 16}' {_FONT} "
            f"font-size='10' text-anchor='middle'>{_esc(xv)}</text>"
        )
    if plot.x_label:
        parts.append(
            f"<text x='{margin_l + pw / 2}' y='{height - 22}' {_FONT} "
            f"font-size='11' text-anchor='middle'>"
            f"{_esc(plot.x_label)}</text>"
        )

    # Bands, lines, markers.
    for si, s in enumerate(plot.series):
        color = _SERIES_COLORS[si % len(_SERIES_COLORS)]
        if s.y_low is not None and s.y_high is not None:
            forward = " ".join(
                f"{px(i)},{py(float(v))}" for i, v in enumerate(s.y_high)
            )
            backward = " ".join(
                f"{px(i)},{py(float(v))}"
                for i, v in reversed(list(enumerate(s.y_low)))
            )
            parts.append(
                f"<polygon points='{forward} {backward}' fill='{color}' "
                f"opacity='0.12'/>"
            )
        points = " ".join(
            f"{px(i)},{py(float(v))}" for i, v in enumerate(s.y)
        )
        parts.append(
            f"<polyline points='{points}' fill='none' stroke='{color}' "
            f"stroke-width='2'/>"
        )
        for i, v in enumerate(s.y):
            parts.append(
                f"<circle cx='{px(i)}' cy='{py(float(v))}' r='3' "
                f"fill='{color}'/>"
            )

    # Legend along the bottom.
    lx = margin_l
    ly = height - 6
    for si, s in enumerate(plot.series):
        color = _SERIES_COLORS[si % len(_SERIES_COLORS)]
        parts.append(
            f"<rect x='{lx}' y='{ly - 9}' width='10' height='10' "
            f"fill='{color}'/>"
        )
        parts.append(
            f"<text x='{lx + 14}' y='{ly}' {_FONT} font-size='11'>"
            f"{_esc(s.label)}</text>"
        )
        lx += 24 + 7 * len(s.label)
    parts.append("</svg>")
    return "\n".join(parts)


def save_figure_svg(figure, directory, fmt: str = "{:.1f}") -> List[Path]:
    """Write every panel of a FigureGrid (or one LinePlot) as .svg files.

    Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    if isinstance(figure, LinePlot):
        path = directory / "figure.svg"
        atomic_write_text(path, lineplot_svg(figure))
        return [path]
    for (kernel, arch), panel in figure.panels.items():
        path = directory / f"{figure.name}_{kernel}_{arch}.svg"
        atomic_write_text(path, heatmap_svg(panel, fmt=fmt))
        written.append(path)
    return written
