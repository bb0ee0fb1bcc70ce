"""Flamegraph rendering of span forests as SVG.

A flamegraph lays each span out as a horizontal bar whose width is its
wall-clock share and whose row is its depth in the span tree — the
study root across the bottom, phases above it, worker chunks stacking
upward.  :func:`flame_svg` emits a self-contained SVG (no external
assets, same zero-dependency rule as the rest of ``repro.reporting``)
with hover titles carrying exact durations, CPU seconds, and pids.

Input is the span forest from
:func:`repro.obs.spans.build_span_forest`.
"""

from __future__ import annotations

from html import escape
from typing import List

__all__ = ["flame_svg"]

_SVG_COLORS = (
    "#e4593b", "#e9803c", "#edaa3e", "#d9c33f", "#a9c93f",
    "#6fc24a", "#4fb875", "#3fa9a0", "#3f86c9", "#5b64d6",
)


def _extent(roots) -> tuple:
    """(start, end) wall window covering every span in the forest."""
    lo = float("inf")
    hi = -float("inf")

    def walk(node) -> None:
        nonlocal lo, hi
        lo = min(lo, node.start)
        hi = max(hi, node.start + node.duration_s)
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    if not roots or hi <= lo:
        return 0.0, 1.0
    return lo, hi


def flame_svg(
    roots,
    width: int = 960,
    row_height: int = 18,
    font_size: int = 11,
) -> str:
    """Self-contained flamegraph SVG with hover titles per span."""
    lo, hi = _extent(roots)
    extent = hi - lo
    depth_max = 0
    rects: List[str] = []

    def place(node, depth: int) -> None:
        nonlocal depth_max
        depth_max = max(depth_max, depth)
        x = (node.start - lo) / extent * width
        w = max(node.duration_s / extent * width, 1.0)
        y = depth * (row_height + 2)
        color = _SVG_COLORS[hash(node.name) % len(_SVG_COLORS)]
        title = (
            f"{node.label}: {node.duration_s:.4f}s wall, "
            f"{node.cpu_s:.4f}s cpu"
        )
        if node.pid is not None:
            title += f", pid {node.pid}"
        label = escape(node.label)
        rects.append(
            f'<g><title>{escape(title)}</title>'
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{row_height}" fill="{color}" rx="2"/>'
            + (
                f'<text x="{x + 3:.1f}" y="{y + row_height - 5}" '
                f'font-size="{font_size}" fill="#fff">{label}</text>'
                if w > 8 * len(node.label) * 0.55
                else ""
            )
            + "</g>"
        )
        for child in node.children:
            place(child, depth + 1)

    for root in roots:
        place(root, 0)

    height = (depth_max + 1) * (row_height + 2) + 4
    body = "\n".join(rects) if rects else (
        f'<text x="4" y="{row_height}" font-size="{font_size}">'
        f"no spans</text>"
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace">\n{body}\n</svg>\n'
    )
