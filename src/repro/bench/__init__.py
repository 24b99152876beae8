"""Benchmark harness: experiment runners and paper-vs-measured reporting."""

from .gates import check_gates
from .reporting import ComparisonRow, ExperimentReport
from .scaleout import format_scaleout_report, run_scaleout

__all__ = [
    "ComparisonRow",
    "ExperimentReport",
    "check_gates",
    "format_scaleout_report",
    "run_scaleout",
]
