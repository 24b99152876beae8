"""Rule-based static analysis over plan graphs.

The correctness firewall for adaptive parallelization: every mutation
must leave the plan semantically equivalent to the serial one, and this
package proves the structural side of that claim without executing
anything.  :func:`analyze_plan` runs four passes over a plan and returns
structured diagnostics (rule id, severity, node ids, message, fix hint):

1. :class:`~repro.plan.analysis.lineage.LineagePass` -- schema and
   column-lineage inference; type-impossible edges.
2. :class:`~repro.plan.analysis.partition.PartitionSafetyPass` -- every
   fan-out tiles its base exactly once (no gap, no overlap).
3. :class:`~repro.plan.analysis.determinism.DeterminismPass` -- races
   between clone completion order and order-sensitive consumers; wrong
   partial-aggregate combiners.
4. :class:`~repro.plan.analysis.lints.LintPass` -- fan-in limits, dead
   slices, splits that cannot pay off.
5. :class:`~repro.plan.analysis.cluster.ShardLineagePass` -- placed
   (cluster) plans only: cross-node edges without an exchange, gather
   unions that double-count or drop shard rows.

Consumers: ``PlanMutator`` rejects mutation candidates that introduce
``error`` diagnostics (keeping a :class:`PlanAnalysis` so each mutation
re-runs the per-node rules only where it changed the plan),
``execute(..., analyze=True)`` refuses to run broken plans, and the
``repro lint`` CLI command reports on demand.
See ``docs/plan_analysis.md`` for the rule catalog and severity policy.
"""

from .diagnostics import SEVERITIES, AnalysisReport, Diagnostic
from .framework import (
    DEFAULT_PACK_FANIN_LIMIT,
    AnalysisContext,
    AnalysisPass,
    NodeRule,
    PlanAnalysis,
    analyze_plan,
    default_passes,
)
from .cluster import ShardLineagePass
from .determinism import DeterminismPass
from .lineage import LineagePass, Shape
from .lints import LintPass
from .partition import PartitionSafetyPass

__all__ = [
    "AnalysisContext",
    "AnalysisPass",
    "AnalysisReport",
    "DEFAULT_PACK_FANIN_LIMIT",
    "DeterminismPass",
    "ShardLineagePass",
    "Diagnostic",
    "LineagePass",
    "LintPass",
    "NodeRule",
    "PartitionSafetyPass",
    "PlanAnalysis",
    "SEVERITIES",
    "Shape",
    "analyze_plan",
    "default_passes",
]
