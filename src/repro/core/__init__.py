"""Adaptive parallelization: the paper's primary contribution."""

from .adaptive import (
    AdaptiveParallelizer,
    AdaptiveResult,
    AdaptiveStep,
    intermediates_equal,
)
from .convergence import (
    DEFAULT_EXTRA_RUNS,
    DEFAULT_GME_THRESHOLD,
    ConvergenceParams,
    ConvergenceTracker,
    RunRecord,
)
from .expensive import (
    ADVANCED_KINDS,
    BASIC_KINDS,
    MEDIUM_KINDS,
    MutationCandidate,
    candidates,
    mutation_scheme,
)
from .heuristic import HeuristicParallelizer, heuristic_for, mitosis_partitions
from .history import PlanHistory
from .session import AdaptiveSession, CacheEntry, EntryState
from .mutation import (
    DEFAULT_PACK_FANIN_LIMIT,
    MutationRejection,
    MutationResult,
    PlanMutator,
    produces_scalar,
)
from .workstealing import WorkStealingConfig, WorkStealingExecutor

__all__ = [
    "ADVANCED_KINDS",
    "AdaptiveParallelizer",
    "AdaptiveResult",
    "AdaptiveSession",
    "AdaptiveStep",
    "BASIC_KINDS",
    "CacheEntry",
    "ConvergenceParams",
    "ConvergenceTracker",
    "DEFAULT_EXTRA_RUNS",
    "DEFAULT_GME_THRESHOLD",
    "DEFAULT_PACK_FANIN_LIMIT",
    "EntryState",
    "HeuristicParallelizer",
    "MEDIUM_KINDS",
    "MutationCandidate",
    "MutationRejection",
    "MutationResult",
    "PlanHistory",
    "PlanMutator",
    "RunRecord",
    "WorkStealingConfig",
    "WorkStealingExecutor",
    "candidates",
    "heuristic_for",
    "mitosis_partitions",
    "intermediates_equal",
    "mutation_scheme",
    "produces_scalar",
]
