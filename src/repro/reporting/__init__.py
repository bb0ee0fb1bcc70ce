"""Reporting: text heatmaps, ASCII line plots, figure/table generators."""

from .convergence import convergence_plot, convergence_plots
from .flame import flame_svg
from .figures import (
    FigureGrid,
    algorithm_label,
    figure2,
    figure3,
    figure4a,
    figure4b,
)
from .heatmap import Heatmap, render_heatmap
from .lineplot import LinePlot, Series, render_lineplot
from .svg import heatmap_svg, lineplot_svg, save_figure_svg
from .tables import (
    SignificanceCell,
    render_significance,
    significance_matrix,
    table1_row,
    variance_table,
)

__all__ = [
    "Heatmap",
    "render_heatmap",
    "LinePlot",
    "Series",
    "render_lineplot",
    "FigureGrid",
    "figure2",
    "figure3",
    "figure4a",
    "figure4b",
    "algorithm_label",
    "convergence_plot",
    "convergence_plots",
    "table1_row",
    "significance_matrix",
    "SignificanceCell",
    "render_significance",
    "variance_table",
    "heatmap_svg",
    "lineplot_svg",
    "save_figure_svg",
    "flame_svg",
]
