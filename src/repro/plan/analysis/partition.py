"""Pass 2: partition-safety analysis.

For every exchange union (``Pack``) the pass proves -- or refutes -- that
the partition branches flowing into it cover their common base exactly
once: no gap, no overlap, full coverage, in slice order.  Fan-outs are
tracked as exact :class:`fractions.Fraction` intervals per *base node*
(the node a ``PartitionSlice`` is laid over, or the column of a partial
``Scan``), propagated through clone subtrees, so the proof survives any
number of splits, nested dynamic partitions, and zipped operand packs.

Value partitions (``ValuePartition``) are checked separately: the value
ranges of sibling partitions must chain ``(-inf .. c1)(c1 .. c2)...(ck
.. +inf)`` exactly.

Packs prove *contiguity*; the union interval propagates upward (nested
packs legitimately re-assemble sub-intervals), and full coverage is
enforced where it must hold: at the plan outputs.

Rules: ``partition.overlap`` (error), ``partition.gap`` (error),
``partition.coverage`` (error, at outputs), ``partition.order`` (error),
``partition.misaligned`` (error), ``partition.value-coverage`` (error),
``partition.unknown-base`` (info).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ...operators.exchange import Pack
from ...operators.slice import FRACTION_UNITS, PartitionSlice, ValuePartition
from ..graph import PlanNode
from .framework import AnalysisContext, AnalysisPass, NodeRule

#: base key -> (lo, hi) fraction interval of that base covered by a node.
IntervalMap = dict[object, tuple[Fraction, Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Kinds whose output row *positions* no longer correspond to input
#: positions, so positional intervals must not propagate through them.
_INTERVAL_BARRIERS = frozenset({"vpartition", "topn", "tail_filter"})

#: Kinds that require every same-base operand to cover the same interval
#: (their evaluate() zips inputs tuple-for-tuple).
_ALIGNED_KINDS = frozenset({"calc", "groupby"})


class PartitionSafetyPass(AnalysisPass):
    """Interval propagation plus exact-tiling proofs at every pack."""

    name = "partition"

    def rules(self) -> tuple[NodeRule, ...]:
        return (
            NodeRule("intervals", self._intervals, publishes="intervals"),
            # A pack branch's value-partition chain is read four levels
            # below the branch (see _find_vpartition).
            NodeRule("packs", self._check_packs, depth=5),
        )

    def run(self, ctx: AnalysisContext) -> None:
        self._check_output_coverage(ctx)

    def _check_packs(self, ctx: AnalysisContext, node: PlanNode) -> None:
        # Type, not kind: Gather (kind "gather") is a Pack subclass and
        # its cross-node union needs the same tiling proof.
        if isinstance(node.op, Pack):
            self._check_pack(ctx, node)
            self._check_value_partitions(ctx, node)

    # ------------------------------------------------------------------
    # Interval propagation
    # ------------------------------------------------------------------
    def _intervals(self, ctx: AnalysisContext, node: PlanNode) -> IntervalMap:
        if isinstance(node.op, PartitionSlice):
            return self._slice_intervals(ctx, node)
        if node.kind == "scan":
            op = node.op
            length = len(op.column)
            if length and (op.lo > 0 or op.hi < length):
                # A partial scan partitions its column: key by the
                # column's stable uid so sibling partial scans share a
                # base (an id() key would differ across runs and leak
                # allocation addresses into analysis output).
                key = ("column", op.column.uid)
                return {key: (Fraction(op.lo, length), Fraction(op.hi, length))}
            return {}
        if node.kind in _INTERVAL_BARRIERS:
            return {}
        if isinstance(node.op, Pack):
            return self._pack_intervals(ctx, node)
        merged: IntervalMap = {}
        conflicted: set[object] = set()
        for child in node.inputs:
            for base, interval in ctx.intervals.get(child.nid, {}).items():
                if base in conflicted:
                    continue
                previous = merged.get(base)
                if previous is None:
                    merged[base] = interval
                elif previous != interval:
                    if node.kind in _ALIGNED_KINDS:
                        ctx.emit(
                            "partition.misaligned",
                            "error",
                            f"{node.describe()} reads misaligned partitions of "
                            f"the same base: {_fmt(previous)} vs {_fmt(interval)}",
                            node,
                            hint="every vector operand of a clone must cover "
                            "the same partition range",
                        )
                    # Conflicting lineages: nothing downstream can be proven
                    # about this base through this node.  A dedicated set,
                    # not a None marker -- a later branch must not be able
                    # to "resolve" the conflict by overwriting it.
                    conflicted.add(base)
                    del merged[base]
        return merged

    def _slice_intervals(self, ctx: AnalysisContext, node: PlanNode) -> IntervalMap:
        op: PartitionSlice = node.op
        lo = Fraction(op.lo, FRACTION_UNITS)
        hi = Fraction(op.hi, FRACTION_UNITS)
        if not node.inputs:
            return {}
        src = node.inputs[0]
        src_map = ctx.intervals.get(src.nid, {})
        if isinstance(src.op, PartitionSlice) and src_map:
            # Nested slice: compose fractions relative to each base the
            # inner slice already covers (dynamic partitioning, Fig. 8).
            composed: IntervalMap = {}
            for base, (b_lo, b_hi) in src_map.items():
                width = b_hi - b_lo
                composed[base] = (b_lo + width * lo, b_lo + width * hi)
            return composed
        # Slice laid directly over a producer: that producer is the base.
        return {src.nid: (lo, hi)}

    def _pack_intervals(self, ctx: AnalysisContext, pack: PlanNode) -> IntervalMap:
        """A pack's coverage of each base is the union of its branches'.

        Mutations nest: a pack may replace a clone that itself covered
        only half of the base, so a pack legitimately re-assembles a
        *sub-interval*, not necessarily the whole base.  Contiguity of
        the branches is proven separately by :meth:`_check_pack`; here we
        only propagate the union so outer packs (and the final output
        check) can finish the proof.
        """
        maps = [ctx.intervals.get(child.nid, {}) for child in pack.inputs]
        bases: set[object] = set()
        for interval_map in maps:
            bases.update(interval_map)
        union: IntervalMap = {}
        for base in bases:
            entries = [m.get(base) for m in maps]
            if any(entry is None for entry in entries):
                # A branch of unknown lineage: the union is unprovable
                # (reported as ``partition.unknown-base`` at the pack).
                continue
            known = [e for e in entries if e is not None]
            scaled = _scaled(known)
            first = min(range(len(known)), key=lambda i: scaled[i][0])
            last = max(range(len(known)), key=lambda i: scaled[i][1])
            union[base] = (known[first][0], known[last][1])
        return union

    # ------------------------------------------------------------------
    # Pack tiling proof
    # ------------------------------------------------------------------
    def _check_pack(self, ctx: AnalysisContext, pack: PlanNode) -> None:
        maps = [ctx.intervals.get(child.nid, {}) for child in pack.inputs]
        bases: set[object] = set()
        for interval_map in maps:
            bases.update(interval_map)
        for base in bases:
            entries = [m.get(base) for m in maps]
            known = [e for e in entries if e is not None]
            scaled = _scaled(known)
            if len(set(scaled)) <= 1:
                # Every input covers the same range (a shared operand such
                # as an unsplit join inner): nothing to tile.
                continue
            if len(known) < len(entries):
                ctx.emit(
                    "partition.unknown-base",
                    "info",
                    f"pack combines {len(known)} branch(es) partitioned over "
                    f"{self._base_name(ctx, base)} with {len(entries) - len(known)} "
                    "branch(es) of unknown lineage; tiling cannot be proven",
                    pack,
                )
                continue
            self._check_tiling(ctx, pack, base, entries, scaled)

    def _check_tiling(
        self,
        ctx: AnalysisContext,
        pack: PlanNode,
        base: object,
        entries: list[tuple[Fraction, Fraction]],
        scaled: list[tuple[int, int]],
    ) -> None:
        base_name = self._base_name(ctx, base)
        order = sorted(range(len(entries)), key=scaled.__getitem__)
        if order != sorted(order):
            pretty = [_fmt(entries[i]) for i in range(len(entries))]
            ctx.emit(
                "partition.order",
                "error",
                f"pack inputs over {base_name} are out of slice order: "
                f"{', '.join(pretty)}; packed results would not match the "
                "serial output order",
                pack,
                hint="reorder the pack inputs by partition position",
            )
            entries = [entries[i] for i in order]
            scaled = [scaled[i] for i in order]
        previous_hi: Fraction | None = None
        previous_end = 0
        for (lo, hi), (start, end) in zip(entries, scaled):
            if previous_hi is not None and start < previous_end:
                ctx.emit(
                    "partition.overlap",
                    "error",
                    f"partitions of {base_name} overlap: "
                    f"{_fmt((lo, hi))} re-covers rows below "
                    f"{_fmt_frac(previous_hi)}; packed results would "
                    "duplicate those rows",
                    pack,
                )
                break
            if previous_hi is not None and start > previous_end:
                ctx.emit(
                    "partition.gap",
                    "error",
                    f"partitions of {base_name} leave a gap: rows in "
                    f"[{_fmt_frac(previous_hi)}, {_fmt_frac(lo)}) are covered "
                    "by no branch; packed results would silently drop them",
                    pack,
                )
                break
            previous_hi, previous_end = hi, end

    def _check_output_coverage(self, ctx: AnalysisContext) -> None:
        """Partitioned lineage must be fully re-assembled by the outputs.

        Packs only prove contiguity; a nested pack may legitimately cover
        a sub-interval of its base.  But by the time a result leaves the
        plan, every base it still tracks must be covered exactly once in
        full -- anything less means some rows never reached the output.
        """
        for out in ctx.plan.outputs:
            for base, (lo, hi) in ctx.intervals.get(out.nid, {}).items():
                if (lo, hi) != (ZERO, ONE):
                    ctx.emit(
                        "partition.coverage",
                        "error",
                        f"plan output #{out.nid} {out.describe()} was computed "
                        f"from only {_fmt((lo, hi))} of "
                        f"{self._base_name(ctx, base)}; the partitions were "
                        "never merged back to full coverage",
                        out,
                        hint="pack the missing partitions before the output",
                    )

    # ------------------------------------------------------------------
    # Value partition chains
    # ------------------------------------------------------------------
    def _check_value_partitions(self, ctx: AnalysisContext, pack: PlanNode) -> None:
        vparts: list[ValuePartition] = []
        sources: set[int] = set()
        for child in pack.inputs:
            found = self._find_vpartition(child, depth=4)
            if found is None:
                return  # not a value-partitioned fan-out (or not provable)
            vparts.append(found.op)
            sources.update(s.nid for s in found.inputs)
        if len(vparts) < 2 or len(sources) != 1:
            return
        bounds = sorted(
            (vp.lo if vp.lo is not None else float("-inf"), vp) for vp in vparts
        )
        previous_hi: float | int | None = None  # None = open below (start)
        for i, (__, vp) in enumerate(bounds):
            lo = vp.lo
            if i == 0:
                if lo is not None:
                    ctx.emit(
                        "partition.value-coverage",
                        "error",
                        f"lowest value partition starts at {lo!r}; values below "
                        "it fall into no partition",
                        pack,
                        hint="the first partition must be open below (lo=None)",
                    )
                    return
            elif lo != previous_hi:
                what = "overlap" if (lo is None or (previous_hi is not None and lo < previous_hi)) else "gap"
                ctx.emit(
                    "partition.value-coverage",
                    "error",
                    f"value partitions {what}: one range ends at "
                    f"{previous_hi!r} but the next starts at {lo!r}",
                    pack,
                )
                return
            previous_hi = vp.hi
        if previous_hi is not None:
            ctx.emit(
                "partition.value-coverage",
                "error",
                f"highest value partition stops at {previous_hi!r}; values at "
                "or above it fall into no partition",
                pack,
                hint="the last partition must be open above (hi=None)",
            )

    def _find_vpartition(self, node: PlanNode, depth: int) -> PlanNode | None:
        """The value-partition operator feeding this pack branch, if the
        branch is a short clone chain over one (clones keep it as their
        first vector input)."""
        if isinstance(node.op, ValuePartition):
            return node
        if depth == 0 or not node.inputs:
            return None
        return self._find_vpartition(node.inputs[0], depth - 1)

    # ------------------------------------------------------------------
    @staticmethod
    def _base_name(ctx: AnalysisContext, base: object) -> str:
        if isinstance(base, int):
            node = ctx.by_nid.get(base)
            if node is not None:
                return f"#{node.nid} {node.describe()}"
        if isinstance(base, tuple) and base and base[0] == "column":
            return "base column"
        return str(base)


def _scaled(entries: list[tuple[Fraction, Fraction]]) -> list[tuple[int, int]]:
    """``entries`` as integer pairs over their least common denominator.

    Scaling by one positive factor keeps every comparison between the
    endpoints exact, and integers compare far faster than ``Fraction``.
    """
    scale = lcm(*(value.denominator for entry in entries for value in entry))
    return [
        (
            lo.numerator * (scale // lo.denominator),
            hi.numerator * (scale // hi.denominator),
        )
        for lo, hi in entries
    ]


def _fmt_frac(value: Fraction) -> str:
    return f"{float(value) * 100:.1f}%"


def _fmt(interval: tuple[Fraction, Fraction]) -> str:
    lo, hi = interval
    return f"[{_fmt_frac(lo)}, {_fmt_frac(hi)})"
