"""Discrete-event multi-core execution engine."""

from .backends import BACKENDS, resolve_backend_name
from .evalpool import EvalFailure, EvalPool, PoolStats, default_workers, settle_job
from .executor import execute
from .machine import HardwareThread, MachineState
from .memo import CacheStats, IntermediateCache
from .noise import NoiseModel
from .profiler import OpRecord, QueryProfile
from .scheduler import ExecutionResult, Simulator

__all__ = [
    "BACKENDS",
    "CacheStats",
    "EvalFailure",
    "EvalPool",
    "ExecutionResult",
    "HardwareThread",
    "IntermediateCache",
    "MachineState",
    "NoiseModel",
    "OpRecord",
    "PoolStats",
    "QueryProfile",
    "Simulator",
    "default_workers",
    "execute",
    "resolve_backend_name",
    "settle_job",
]
