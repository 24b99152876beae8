"""Pass 3: determinism race detection.

Under the data-flow scheduler, clone subplans finish in timing-dependent
order; only the exchange union's input *positions* (slice order keys)
keep packed results deterministic.  This pass finds the two ways that
guarantee breaks:

* an **unordered pack** -- inputs without order keys -- whose result
  reaches an order-sensitive consumer (``TopN``/``TailFilter``, or a
  plan output) before any order-restoring barrier, so the query result
  depends on which clone the scheduler happened to finish first;
* a **wrong combiner** above a pack of partials: an ``AggrMerge`` or
  scalar ``Aggregate`` whose merge function is not the one that combines
  the partials' aggregate (the classic count-of-counts bug), or a
  ``Sort`` combiner whose key/direction differs from its partials'.

Rules: ``determinism.race`` (error), ``determinism.unordered-output``
(warn), ``determinism.unordered-pack`` (info), ``determinism.merge-func``
(error), ``determinism.mixed-partials`` (error),
``determinism.sort-combiner`` (error), ``determinism.duplicate-key``
(warn).
"""

from __future__ import annotations

from ...operators.aggregate import Aggregate
from ...operators.groupby import AggrMerge, GroupAggregate, merge_func_for
from ...operators.sort import Sort
from ..graph import PlanNode
from .framework import AnalysisContext, AnalysisPass, NodeRule

#: Operators whose output does not depend on their input's tuple order
#: (they sort, hash, or reduce): traversal of order-sensitivity stops.
_ORDER_BARRIERS = frozenset(
    {"sort", "groupby", "aggregate", "aggr_merge", "cand_union", "cand_intersect"}
)

#: Operators whose *semantics* read tuple order: first-k, grouped HAVING
#: over an assumed-grouped stream.
_ORDER_SENSITIVE = frozenset({"topn", "tail_filter"})


class DeterminismPass(AnalysisPass):
    """Order-key auditing plus combiner/partial consistency checks."""

    name = "determinism"

    def rules(self) -> tuple[NodeRule, ...]:
        # A combiner is checked against the partials below its pack.
        return (NodeRule("races", self._check_node, depth=2),)

    def _check_node(self, ctx: AnalysisContext, node: PlanNode) -> None:
        if node.kind == "pack":
            self._check_order_keys(ctx, node)
        self._check_combiner(ctx, node)

    # ------------------------------------------------------------------
    # Unordered packs
    # ------------------------------------------------------------------
    def _check_order_keys(self, ctx: AnalysisContext, pack: PlanNode) -> None:
        keys = [child.order_key for child in pack.inputs]
        known = [k for k in keys if k is not None]
        if len(known) != len(set(known)):
            ctx.emit(
                "determinism.duplicate-key",
                "warn",
                f"pack inputs share order keys: {keys}; two branches claim "
                "the same partition position",
                pack,
            )
        if len(pack.inputs) < 2 or None not in keys:
            return
        # The sink search reads the plan above the pack, which any edit
        # up there can change.
        ctx.mark_volatile()
        sink = self._order_sensitive_sink(ctx, pack)
        if sink is not None and sink.kind in _ORDER_SENSITIVE:
            ctx.emit(
                "determinism.race",
                "error",
                f"pack without slice order keys feeds order-sensitive "
                f"{sink.describe()}; the result depends on clone completion "
                "order under the scheduler",
                pack,
                sink,
                hint="set order_key on every pack input, or sort before "
                f"the {sink.kind}",
            )
        elif sink is not None:
            ctx.emit(
                "determinism.unordered-output",
                "warn",
                "pack without slice order keys reaches a plan output; the "
                "result row order depends on scheduler timing",
                pack,
                hint="set order_key on every pack input",
            )
        else:
            ctx.emit(
                "determinism.unordered-pack",
                "info",
                "pack inputs carry no slice order keys; safe only because "
                "every consumer is order-insensitive",
                pack,
            )

    def _order_sensitive_sink(
        self, ctx: AnalysisContext, pack: PlanNode
    ) -> PlanNode | None:
        """The first order-sensitive consumer the pack's tuple order can
        reach, or a pseudo 'output' sink, or None when fully absorbed.

        Packs of one plan share the region above them, so a search that
        finds nothing records what it walked in ``ctx.absorbed`` and later
        searches of the same run skip it: nothing reachable from there is
        a sink, so the skip changes no result.
        """
        outputs = {out.nid for out in ctx.plan.outputs}
        absorbed = ctx.absorbed
        seen: set[int] = set()
        frontier = [pack]
        reached_output: PlanNode | None = None
        while frontier:
            node = frontier.pop()
            if node.nid in seen or node.nid in absorbed:
                continue
            seen.add(node.nid)
            if node is not pack:
                if node.kind in _ORDER_SENSITIVE:
                    return node
                if node.kind in _ORDER_BARRIERS:
                    continue
            if node.nid in outputs:
                reached_output = node
            frontier.extend(ctx.consumers.get(node.nid, ()))
        if reached_output is None:
            absorbed |= seen
        return reached_output

    # ------------------------------------------------------------------
    # Combiner / partial consistency
    # ------------------------------------------------------------------
    def _check_combiner(self, ctx: AnalysisContext, node: PlanNode) -> None:
        source = node.inputs[0] if node.inputs else None
        if source is None or source.kind != "pack":
            return
        partials = source.inputs
        if isinstance(node.op, AggrMerge):
            funcs = {p.op.func for p in partials if isinstance(p.op, GroupAggregate)}
            self._check_merge_funcs(ctx, node, source, funcs, node.op.func)
        elif isinstance(node.op, Aggregate):
            funcs = {
                p.op.func
                for p in partials
                if isinstance(p.op, Aggregate)
                and ctx.shapes.get(p.nid) is not None
                and ctx.shapes[p.nid].family == "scalar"
            }
            self._check_merge_funcs(ctx, node, source, funcs, node.op.func)
        elif isinstance(node.op, Sort):
            for partial in partials:
                if not isinstance(partial.op, Sort):
                    continue
                if (
                    partial.op.descending != node.op.descending
                    or partial.op.by != node.op.by
                ):
                    ctx.emit(
                        "determinism.sort-combiner",
                        "error",
                        f"merge {node.describe()} disagrees with partial "
                        f"{partial.describe()}; merged output would not be "
                        "sorted",
                        node,
                        partial,
                    )

    def _check_merge_funcs(
        self,
        ctx: AnalysisContext,
        combiner: PlanNode,
        pack: PlanNode,
        partial_funcs: set[str],
        merge_func: str,
    ) -> None:
        if not partial_funcs:
            return
        if len(partial_funcs) > 1:
            ctx.emit(
                "determinism.mixed-partials",
                "error",
                f"pack combines partials of different aggregates "
                f"{sorted(partial_funcs)}; they cannot share one merge",
                pack,
                combiner,
            )
            return
        func = next(iter(partial_funcs))
        expected = merge_func_for(func)
        if merge_func != expected:
            ctx.emit(
                "determinism.merge-func",
                "error",
                f"partials compute {func!r} but the combiner merges with "
                f"{merge_func!r}; partial {func} results must be combined "
                f"with {expected!r}",
                combiner,
                pack,
                hint=f"use {expected!r} (e.g. count partials are summed)",
            )
