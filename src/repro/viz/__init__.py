"""Visualization: text tomograph, ASCII figure plots and bench SVG figures."""

from .ascii_plot import bar_chart, line_plot
from .convergence import render_convergence_report
from .policies import render_policy_figure
from .scaleout import render_scaleout_figure
from .tomograph import (
    render_tomograph,
    render_trace_tomograph,
    utilization_summary,
)

__all__ = [
    "bar_chart",
    "line_plot",
    "render_convergence_report",
    "render_policy_figure",
    "render_scaleout_figure",
    "render_tomograph",
    "render_trace_tomograph",
    "utilization_summary",
]
