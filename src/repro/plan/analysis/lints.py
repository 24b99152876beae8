"""Pass 4: structural lints and cost-monotonicity checks.

Nothing here breaks correctness -- these rules flag mutations that waste
the machine or freeze the plan's further evolution: exchange unions past
the fan-in threshold (the medium mutation will never remove them, so
they ossify into serial barriers), degenerate one-input packs, empty or
unsplittable partition slices, duplicated pack branches, and splits the
cost model says cannot pay off (fewer than two tuples to divide).

Rules: ``lint.duplicate-input`` (error), ``lint.pack-fanin`` (warn),
``lint.empty-slice`` (warn), ``lint.degenerate-pack`` (info),
``lint.single-unit-slice`` (info), ``lint.split-no-benefit`` (info).
(``lint.no-outputs`` and ``lint.cycle`` are emitted by the framework
before any pass runs.)
"""

from __future__ import annotations

from ...operators.slice import PartitionSlice
from ..graph import PlanNode
from .framework import AnalysisContext, AnalysisPass, NodeRule


class LintPass(AnalysisPass):
    """Plan-shape smells that block or waste further adaptation."""

    name = "lint"

    def rules(self) -> tuple[NodeRule, ...]:
        return (NodeRule("smells", self._lint_node),)

    def _lint_node(self, ctx: AnalysisContext, node: PlanNode) -> None:
        if node.kind == "pack":
            self._lint_pack(ctx, node)
        elif isinstance(node.op, PartitionSlice):
            self._lint_slice(ctx, node)

    # ------------------------------------------------------------------
    def _lint_pack(self, ctx: AnalysisContext, pack: PlanNode) -> None:
        seen: set[int] = set()
        for child in pack.inputs:
            if child.nid in seen:
                ctx.emit(
                    "lint.duplicate-input",
                    "error",
                    f"pack reads #{child.nid} {child.describe()} twice; its "
                    "rows would be duplicated in the packed result",
                    pack,
                    child,
                )
                break
            seen.add(child.nid)
        fanin = len(pack.inputs)
        if fanin > ctx.pack_fanin_limit:
            ctx.emit(
                "lint.pack-fanin",
                "warn",
                f"pack fan-in {fanin} exceeds the removal threshold "
                f"({ctx.pack_fanin_limit}); the medium mutation will never "
                "remove this union and it ossifies into a serial barrier",
                pack,
                hint="raise pack_fanin_limit or stop splitting this subtree",
            )
        elif fanin == 1:
            ctx.emit(
                "lint.degenerate-pack",
                "info",
                "pack has a single input; it only copies data",
                pack,
                hint="splice the input through to the pack's consumers",
            )

    def _lint_slice(self, ctx: AnalysisContext, node: PlanNode) -> None:
        op: PartitionSlice = node.op
        if op.lo == op.hi:
            ctx.emit(
                "lint.empty-slice",
                "warn",
                f"{node.describe()} covers an empty range; its clone only "
                "burns a scheduler slot",
                node,
            )
            return
        if op.hi - op.lo < 2:
            ctx.emit(
                "lint.single-unit-slice",
                "info",
                f"{node.describe()} is a single fraction unit; dynamic "
                "partitioning cannot split it further",
                node,
            )
        source = node.inputs[0] if node.inputs else None
        if source is None:
            return
        shape = ctx.shapes.get(source.nid)
        if shape is not None and shape.rows_hi is not None and shape.rows_hi < 2:
            ctx.emit(
                "lint.split-no-benefit",
                "info",
                f"slicing #{source.nid} {source.describe()} with at most "
                f"{shape.rows_hi} row(s): the cost model says a split of "
                "fewer than two tuples cannot reduce execution time",
                node,
                source,
            )
