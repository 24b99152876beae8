"""The multi-pass analysis framework: context, pass interface, driver.

``analyze_plan`` runs a sequence of :class:`AnalysisPass` objects over
one plan.  Passes share an :class:`AnalysisContext` that caches the
topological node order and the consumer map, and that accumulates both
diagnostics and cross-pass facts (the lineage pass publishes per-node
shapes; the partition pass publishes per-node partition intervals) so
later passes can build on earlier inference instead of re-deriving it.

A pass splits its rules in two.  *Node rules* (:class:`NodeRule`) look
at one node and the few levels of inputs below it, and
:func:`analyze_plan` sweeps each over the plan in topological order.
*Whole-plan rules* (:meth:`AnalysisPass.run`) see everything and run
after the pass's node rules.  The split is what lets the adaptive loop
re-analyze only what a mutation changed: given the :class:`PlanAnalysis`
of an earlier run, a node rule is re-run only on nodes whose inputs,
operator, or the facts it reads changed, and every other node keeps its
cached findings.
"""

from __future__ import annotations

import heapq
from abc import ABC
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ...errors import PlanError
from ..graph import Plan, PlanNode
from .diagnostics import AnalysisReport, Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .lineage import Shape
    from .partition import IntervalMap

#: Paper Section 2.3: exchange unions with more inputs than this cannot
#: be removed by the medium mutation any more (plan-explosion guard), so
#: the lint pass flags them as ossified serial barriers.
DEFAULT_PACK_FANIN_LIMIT = 15

_MISSING = object()


class AnalysisContext:
    """Shared state for one analyzer run over one plan."""

    def __init__(self, plan: Plan, *, pack_fanin_limit: int = DEFAULT_PACK_FANIN_LIMIT) -> None:
        self.plan = plan
        self.pack_fanin_limit = pack_fanin_limit
        self.nodes: list[PlanNode] = plan.nodes()  # may raise on cycles
        #: node id -> index in ``nodes``.
        self.position: dict[int, int] = {}
        self.consumers: dict[int, list[PlanNode]] = {}
        position, consumers = self.position, self.consumers
        for i, node in enumerate(self.nodes):  # inputs come first
            position[node.nid] = i
            consumers[node.nid] = []
            for child in node.inputs:
                consumers[child.nid].append(node)
        self.diagnostics: list[Diagnostic] = []
        #: node id -> inferred output shape (published by the lineage pass).
        self.shapes: dict[int, "Shape"] = {}
        #: node id -> partition interval map (published by the partition pass).
        self.intervals: dict[int, "IntervalMap"] = {}
        #: Nodes whose tuple order reaches no order-sensitive consumer and
        #: no plan output (found by the determinism pass's sink searches
        #: during this run; never carried to the next).
        self.absorbed: set[int] = set()
        self._sink = self.diagnostics
        self._volatile = False

    @cached_property
    def by_nid(self) -> dict[int, PlanNode]:
        return {node.nid: node for node in self.nodes}

    def emit(
        self,
        rule: str,
        severity: str,
        message: str,
        *nodes: PlanNode,
        hint: str | None = None,
    ) -> None:
        self._sink.append(
            Diagnostic(
                rule=rule,
                severity=severity,
                message=message,
                nodes=tuple(node.nid for node in nodes),
                hint=hint,
            )
        )

    def mark_volatile(self) -> None:
        """Declare that the node rule now running read beyond what its
        ``depth`` covers (e.g. searched the plan above the node), so its
        findings must be recomputed on every run instead of reused."""
        self._volatile = True


@dataclass(frozen=True)
class NodeRule:
    """One per-node rule of a pass.

    ``visit(ctx, node)`` inspects one node and emits its findings.  It
    may read the node itself and its inputs down to ``depth`` levels,
    including the facts earlier rules published for them.  A rule that
    reads further (e.g. searches the plan above the node) calls
    :meth:`AnalysisContext.mark_volatile`.  A rule that ``publishes`` a
    fact returns it, and :func:`analyze_plan` stores it in the context
    attribute of that name (``"shapes"``, ``"intervals"``), keyed by
    node id.
    """

    name: str
    visit: Callable[[AnalysisContext, PlanNode], object]
    depth: int = 1
    publishes: str | None = None


class AnalysisPass(ABC):
    """One rule family: per-node rules plus whole-plan rules."""

    #: Short name used as the rule-id prefix (``<name>.<rule>``).
    name: str = "pass"

    def rules(self) -> Sequence[NodeRule]:
        """Per-node rules, swept over the plan in this order."""
        return ()

    def run(self, ctx: AnalysisContext) -> None:
        """Whole-plan rules, run after :meth:`rules` on every analysis."""


def default_passes() -> tuple[AnalysisPass, ...]:
    """The standard pass pipeline, in dependency order."""
    from .cluster import ShardLineagePass
    from .determinism import DeterminismPass
    from .lineage import LineagePass
    from .lints import LintPass
    from .partition import PartitionSafetyPass

    return (
        LineagePass(),
        PartitionSafetyPass(),
        DeterminismPass(),
        LintPass(),
        ShardLineagePass(),
    )


class PlanAnalysis:
    """Per-node results of the last analyzer run, for the next to reuse.

    Keyed by node id: each reachable node's signature (operator object,
    placement, label, order key, inputs), the facts node rules published
    for it, and its findings per node rule.  :func:`analyze_plan` with
    ``reuse=`` compares every node against its signature.  A node is
    *changed* when it is new, rewired (inputs or order key differ), or
    renamed (operator replaced or edited in place, label differs).  A
    node rule is re-run on a node only when a changed node, or one whose
    facts changed, lies within the rule's ``depth`` below it, when a
    renamed node lies anywhere below it (other findings quote its
    description), or when its last visit was volatile.  Entries of nodes
    that left the plan are dropped, so the cache stays as large as the
    plan.  Operators are treated as immutable apart from their
    ``placement``.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        """Forget everything: the next run starts from scratch."""
        self._key: tuple | None = None
        self._signatures: dict[int, tuple] = {}
        self._facts: dict[str, dict[int, object]] = {}
        self._findings: list[dict[int, list[Diagnostic]]] = []
        self._volatile: list[set[int]] = []
        #: Nodes the last run treated as changed.
        self.changed = 0
        #: Node-rule visits the last run made (a from-scratch run makes
        #: one per node per rule).
        self.visits = 0

    def _diff(self, ctx: AnalysisContext) -> tuple[set[int], set[int]]:
        """(changed, renamed) node ids; refreshes the signatures and drops
        the entries of nodes that left the plan."""
        signatures = self._signatures
        for nid in signatures.keys() - ctx.position.keys():
            del signatures[nid]
            for facts in self._facts.values():
                facts.pop(nid, None)
            for findings in self._findings:
                findings.pop(nid, None)
            for volatile in self._volatile:
                volatile.discard(nid)
        changed: set[int] = set()
        renamed: set[int] = set()
        for node in ctx.nodes:
            op = node.op
            placement = getattr(op, "placement", None)
            old = signatures.get(node.nid)
            if old is not None:
                if old[0] is not op or old[1] != placement or old[2] != node.label:
                    renamed.add(node.nid)
                elif old[3] == node.order_key and old[4] == node.inputs:
                    continue
            changed.add(node.nid)
            signatures[node.nid] = (
                op,
                placement,
                node.label,
                node.order_key,
                list(node.inputs),
            )
        return changed, renamed

    def run(self, ctx: AnalysisContext, passes: Sequence[AnalysisPass]) -> None:
        key = (tuple(type(p) for p in passes), ctx.pack_fanin_limit)
        if key != self._key:
            self.clear()
            self._key = key
        try:
            self._run(ctx, passes)
        except BaseException:
            self.clear()  # half-updated results must never be reused
            raise

    def _run(self, ctx: AnalysisContext, passes: Sequence[AnalysisPass]) -> None:
        touched, renamed = self._diff(ctx)
        self.changed = len(touched)
        self.visits = 0
        everything = len(touched) == len(ctx.nodes)
        # Renamed nodes invalidate everything above them: findings quote
        # node descriptions of partition bases at any depth.
        above_renamed: set[int] = set() if everything else _reach(ctx, renamed, None)
        index = 0
        for analysis_pass in passes:
            for rule in analysis_pass.rules():
                if index == len(self._findings):
                    self._findings.append({})
                    self._volatile.append(set())
                findings = self._findings[index]
                volatile = self._volatile[index]
                index += 1
                facts: dict[int, object] | None = None
                if rule.publishes is not None:
                    facts = self._facts.setdefault(rule.publishes, {})
                    setattr(ctx, rule.publishes, facts)
                stale: set[int] | None = None
                if not everything:
                    stale = _reach(ctx, touched, rule.depth)
                    stale |= above_renamed
                    stale |= volatile
                self._sweep(ctx, rule, stale, touched, facts, findings, volatile)
            ctx._sink = ctx.diagnostics
            analysis_pass.run(ctx)

    def _sweep(
        self,
        ctx: AnalysisContext,
        rule: NodeRule,
        stale: set[int] | None,
        touched: set[int],
        facts: dict[int, object] | None,
        findings: dict[int, list[Diagnostic]],
        volatile: set[int],
    ) -> None:
        """Visit the ``stale`` nodes (all when None) in topological order,
        and replay the cached findings of the others in their place."""
        nodes = ctx.nodes
        if stale is None:
            for node in nodes:
                self._visit(ctx, rule, node, facts, findings, volatile)
            return
        report = ctx.diagnostics
        position = ctx.position
        queue = [position[nid] for nid in stale.union(findings)]
        heapq.heapify(queue)
        while queue:
            node = nodes[heapq.heappop(queue)]
            nid = node.nid
            if nid not in stale:
                report.extend(findings[nid])
            elif self._visit(ctx, rule, node, facts, findings, volatile):
                # Its readers (all later in topological order) must look
                # at the new fact.
                touched.add(nid)
                for reader in _reach(ctx, (nid,), rule.depth):
                    if reader not in stale:
                        stale.add(reader)
                        if reader not in findings:
                            heapq.heappush(queue, position[reader])

    def _visit(
        self,
        ctx: AnalysisContext,
        rule: NodeRule,
        node: PlanNode,
        facts: dict[int, object] | None,
        findings: dict[int, list[Diagnostic]],
        volatile: set[int],
    ) -> bool:
        """Run ``rule`` on ``node``; True when its published fact changed."""
        self.visits += 1
        nid = node.nid
        bucket: list[Diagnostic] = []
        ctx._sink = bucket
        ctx._volatile = False
        fact = rule.visit(ctx, node)
        if bucket:
            findings[nid] = bucket
            ctx.diagnostics.extend(bucket)
        else:
            findings.pop(nid, None)
        if ctx._volatile:
            volatile.add(nid)
        elif volatile:
            volatile.discard(nid)
        if facts is None:
            return False
        changed = facts.get(nid, _MISSING) != fact
        facts[nid] = fact
        return changed


def _reach(ctx: AnalysisContext, seeds: Iterable[int], depth: int | None) -> set[int]:
    """``seeds`` plus every node that reads one of them through at most
    ``depth`` edges (any number when ``depth`` is None)."""
    reached = set(seeds)
    frontier = list(reached)
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        ahead = []
        for nid in frontier:
            for node in ctx.consumers[nid]:
                if node.nid not in reached:
                    reached.add(node.nid)
                    ahead.append(node.nid)
        frontier = ahead
    return reached


def analyze_plan(
    plan: Plan,
    *,
    passes: Sequence[AnalysisPass] | None = None,
    pack_fanin_limit: int = DEFAULT_PACK_FANIN_LIMIT,
    reuse: PlanAnalysis | None = None,
) -> AnalysisReport:
    """Run the static analyzer over ``plan`` and collect diagnostics.

    Never raises on a malformed plan: structural impossibilities (cycles,
    empty output lists) come back as ``error`` diagnostics so callers can
    treat every outcome uniformly.

    ``reuse`` carries the per-node results of an earlier run (normally
    over the same plan object, between mutations); node rules are then
    re-run only where the plan changed, and ``reuse`` is updated to this
    run's results.  The report is the same, diagnostic for diagnostic
    and in the same order, as a run without it.
    """
    if not plan.outputs:
        return AnalysisReport(
            (
                Diagnostic(
                    rule="lint.no-outputs",
                    severity="error",
                    message="plan has no outputs; the graph is empty by reachability",
                    hint="call set_outputs()/build() with the result node(s)",
                ),
            )
        )
    try:
        ctx = AnalysisContext(plan, pack_fanin_limit=pack_fanin_limit)
    except PlanError as exc:
        return AnalysisReport(
            (
                Diagnostic(
                    rule="lint.cycle",
                    severity="error",
                    message=str(exc),
                    hint="a mutation rewired a node into its own input chain",
                ),
            )
        )
    analysis = reuse if reuse is not None else PlanAnalysis()
    analysis.run(ctx, passes if passes is not None else default_passes())
    return AnalysisReport(tuple(ctx.diagnostics))
