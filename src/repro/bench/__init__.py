"""Benchmark harness: experiment runners and paper-vs-measured reporting."""

from .gates import check_gates
from .reporting import ComparisonRow, ExperimentReport
from .scaleout import format_scaleout_report, run_scaleout
from .wallclock import format_report, run_wallclock

__all__ = [
    "ComparisonRow",
    "ExperimentReport",
    "check_gates",
    "format_report",
    "format_scaleout_report",
    "run_scaleout",
    "run_wallclock",
]
