"""Concurrent workload simulation: closed-loop clients on one machine."""

from .client import ClientSpec
from .service import (
    ConcurrentWorkload,
    FifoAdmission,
    Lane,
    ResilienceConfig,
    ResilientWorkload,
    WorkloadReport,
    run_closed_loop,
)

__all__ = [
    "ClientSpec",
    "ConcurrentWorkload",
    "FifoAdmission",
    "Lane",
    "ResilienceConfig",
    "ResilientWorkload",
    "WorkloadReport",
    "run_closed_loop",
]
