"""Pass 1: schema and column-lineage inference.

Propagates an output :class:`Shape` for every node bottom-up from the
``Scan``/``Literal`` leaves: the intermediate family the node emits
(column slice, candidate list, BAT, scalar), its value dtype, row-count
bounds, and the set of base columns its values descend from.  On the
way it flags type-impossible edges -- inputs an operator's ``evaluate``
would reject at run time -- and scalar/vector mismatches, subsuming and
extending the arity checks of :mod:`repro.plan.validate`.

Rules: ``lineage.arity`` (error), ``lineage.input-type`` (error),
``lineage.pack-mix`` (error), ``lineage.pack-dtype`` (error),
``lineage.aggregate-input`` (error), ``lineage.groupby-rows`` (warn),
``lineage.unknown-op`` (info).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...operators.aggregate import Aggregate
from ...operators.calc import Calc
from ...operators.groupby import AggrMerge, GroupAggregate
from ...operators.scan import Scan
from ...operators.slice import PartitionSlice
from ...operators.sort import TopN
from ...storage.dtypes import DBL, LNG, OID, DataType
from ..graph import PlanNode
from ..validate import arity_of
from .framework import AnalysisContext, AnalysisPass, NodeRule

#: Intermediate families, matching the runtime types in repro.storage.column.
SLICE, CANDS, BAT, SCALAR, UNKNOWN = "slice", "cands", "bat", "scalar", "unknown"

#: Families that carry a (head, tail) pair usable as vector operands.
VECTOR = frozenset({SLICE, BAT})


@dataclass(frozen=True)
class Shape:
    """Statically inferred output description of one plan node."""

    family: str  # SLICE | CANDS | BAT | SCALAR | UNKNOWN
    dtype: DataType | None = None
    rows_lo: int = 0
    rows_hi: int | None = None  # None = unbounded / unknown
    columns: tuple[str, ...] = ()  # source base columns, "table.column"

    @property
    def is_vector(self) -> bool:
        return self.family in VECTOR

    def describe(self) -> str:
        dtype = self.dtype.name if self.dtype is not None else "?"
        if self.rows_hi is None:
            rows = f"{self.rows_lo}.."
        elif self.rows_hi == self.rows_lo:
            rows = str(self.rows_lo)
        else:
            rows = f"{self.rows_lo}..{self.rows_hi}"
        return f"{self.family}<{dtype}>[{rows}]"


_UNKNOWN = Shape(UNKNOWN)


def _merge_columns(shapes: list[Shape]) -> tuple[str, ...]:
    seen: set[str] = set()
    for shape in shapes:
        seen.update(shape.columns)
    return tuple(sorted(seen))


def _hi(*shapes: Shape) -> int | None:
    """Sum of row upper bounds; unknown if any is unknown."""
    total = 0
    for shape in shapes:
        if shape.rows_hi is None:
            return None
        total += shape.rows_hi
    return total


class LineagePass(AnalysisPass):
    """Bottom-up shape propagation plus type checking of every edge."""

    name = "lineage"

    def rules(self) -> tuple[NodeRule, ...]:
        # Topological sweep: a node's inputs are already shaped.
        return (NodeRule("shape", self._shape, publishes="shapes"),)

    # ------------------------------------------------------------------
    def _shape(self, ctx: AnalysisContext, node: PlanNode) -> Shape:
        spec = arity_of(node.op)
        if spec is None:
            ctx.emit(
                "lineage.unknown-op",
                "info",
                f"operator type {type(node.op).__name__} ({node.describe()}) is "
                "unknown to the analyzer; its edges are not checked",
                node,
            )
            return _UNKNOWN
        lo, hi = spec
        n = len(node.inputs)
        if n < lo or (hi is not None and n > hi):
            bound = f"{lo}" if hi == lo else f"{lo}..{hi or 'inf'}"
            ctx.emit(
                "lineage.arity",
                "error",
                f"{node.describe()} has {n} inputs, expected {bound}",
                node,
            )
            return _UNKNOWN
        ins = [ctx.shapes.get(child.nid, _UNKNOWN) for child in node.inputs]
        handler = getattr(self, f"_shape_{node.kind.replace('-', '_')}", None)
        if handler is None:
            return self._shape_default(ctx, node, ins)
        return handler(ctx, node, ins)

    def _bad_input(
        self,
        ctx: AnalysisContext,
        node: PlanNode,
        slot: int,
        expected: str,
        got: Shape,
        *,
        hint: str | None = None,
    ) -> Shape:
        if got.family != UNKNOWN:  # never cascade from unknowable inputs
            ctx.emit(
                "lineage.input-type",
                "error",
                f"{node.describe()} input {slot} must be {expected}, "
                f"but produces {got.describe()}",
                node,
                node.inputs[slot],
                hint=hint,
            )
        return _UNKNOWN

    # -- leaves --------------------------------------------------------
    def _shape_scan(self, ctx, node: PlanNode, ins) -> Shape:
        op: Scan = node.op
        rows = op.hi - op.lo
        name = node.label if node.label else op.column.name
        return Shape(SLICE, op.column.dtype, rows, rows, (name,))

    def _shape_literal(self, ctx, node: PlanNode, ins) -> Shape:
        return Shape(SCALAR, node.op.dtype, 1, 1)

    # -- partitioning --------------------------------------------------
    def _shape_slice(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family == SCALAR:
            return self._bad_input(
                ctx, node, 0, "a slice, BAT, or candidate list", src,
                hint="a positional slice of a scalar cannot be evaluated",
            )
        if src.family == UNKNOWN:
            return _UNKNOWN
        op: PartitionSlice = node.op
        from ...operators.slice import FRACTION_UNITS

        span = op.hi - op.lo
        rows_hi = None
        if src.rows_hi is not None:
            # floor arithmetic can shift one row either way; stay a bound.
            rows_hi = (src.rows_hi * span) // FRACTION_UNITS + 1
        return Shape(src.family, src.dtype, 0, rows_hi, src.columns)

    def _shape_vpartition(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family == UNKNOWN:
            return _UNKNOWN
        if not src.is_vector:
            return self._bad_input(ctx, node, 0, "a slice or BAT", src)
        return Shape(BAT, src.dtype, 0, src.rows_hi, src.columns)

    # -- filters -------------------------------------------------------
    def _shape_select(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family not in (SLICE, UNKNOWN):
            return self._bad_input(
                ctx, node, 0, "a column slice", src,
                hint="selections scan base columns; fetch values first if "
                "filtering an intermediate",
            )
        if len(ins) == 2 and ins[1].family not in (CANDS, UNKNOWN):
            return self._bad_input(ctx, node, 1, "a candidate list", ins[1])
        return Shape(CANDS, OID, 0, src.rows_hi, _merge_columns(ins))

    def _shape_cand_union(self, ctx, node: PlanNode, ins) -> Shape:
        return self._cand_combine(ctx, node, ins)

    def _shape_cand_intersect(self, ctx, node: PlanNode, ins) -> Shape:
        return self._cand_combine(ctx, node, ins)

    def _cand_combine(self, ctx, node: PlanNode, ins) -> Shape:
        for slot, shape in enumerate(ins):
            if shape.family not in (CANDS, UNKNOWN):
                return self._bad_input(ctx, node, slot, "a candidate list", shape)
        return Shape(CANDS, OID, 0, _hi(*ins), _merge_columns(ins))

    # -- tuple reconstruction ------------------------------------------
    def _shape_fetch(self, ctx, node: PlanNode, ins) -> Shape:
        rowids, view = ins
        if rowids.family not in (CANDS, BAT, UNKNOWN):
            return self._bad_input(
                ctx, node, 0, "a candidate list or BAT of row ids", rowids
            )
        if view.family not in (SLICE, UNKNOWN):
            return self._bad_input(
                ctx, node, 1, "a column slice", view,
                hint="fetch gathers from base columns; swap the inputs?",
            )
        return Shape(BAT, view.dtype, 0, rowids.rows_hi, _merge_columns(ins))

    def _shape_mirror(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family not in (CANDS, SLICE, UNKNOWN):
            return self._bad_input(ctx, node, 0, "candidates or a slice", src)
        return Shape(BAT, OID, src.rows_lo, src.rows_hi, src.columns)

    def _shape_heads(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family not in (BAT, UNKNOWN):
            return self._bad_input(ctx, node, 0, "a BAT", src)
        return Shape(CANDS, OID, src.rows_lo, src.rows_hi, src.columns)

    # -- joins ---------------------------------------------------------
    def _shape_join(self, ctx, node: PlanNode, ins) -> Shape:
        for slot, shape in enumerate(ins):
            if shape.family != UNKNOWN and not shape.is_vector:
                return self._bad_input(ctx, node, slot, "a vector (slice or BAT)", shape)
        outer, inner = ins
        rows_hi = None
        if outer.rows_hi is not None and inner.rows_hi is not None:
            rows_hi = outer.rows_hi * inner.rows_hi
        return Shape(BAT, OID, 0, rows_hi, _merge_columns(ins))

    def _shape_semijoin(self, ctx, node: PlanNode, ins) -> Shape:
        for slot, shape in enumerate(ins):
            if shape.family != UNKNOWN and not shape.is_vector:
                return self._bad_input(ctx, node, slot, "a vector (slice or BAT)", shape)
        outer = ins[0]
        return Shape(BAT, outer.dtype, 0, outer.rows_hi, _merge_columns(ins))

    # -- compute -------------------------------------------------------
    def _shape_calc(self, ctx, node: PlanNode, ins) -> Shape:
        a, b = ins
        for slot, shape in enumerate(ins):
            if shape.family == CANDS:
                return self._bad_input(
                    ctx, node, slot, "a scalar or vector", shape,
                    hint="candidate lists carry no values; fetch them first",
                )
        if UNKNOWN in (a.family, b.family):
            return _UNKNOWN
        op: Calc = node.op
        if a.family == SCALAR and b.family == SCALAR:
            dtype = self._calc_dtype(op, a.dtype, b.dtype)
            return Shape(SCALAR, dtype, 1, 1)
        dtype = self._calc_dtype(op, a.dtype, b.dtype)
        vectors = [s for s in (a, b) if s.is_vector]
        rows_hi = min(
            (s.rows_hi for s in vectors if s.rows_hi is not None), default=None
        )
        return Shape(BAT, dtype, 0, rows_hi, _merge_columns(ins))

    @staticmethod
    def _calc_dtype(op: Calc, a: DataType | None, b: DataType | None) -> DataType | None:
        if op.op == "/":
            return DBL
        if a is None or b is None:
            return None
        return DBL if (a is DBL or b is DBL) else LNG

    # -- ordering ------------------------------------------------------
    def _shape_sort(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family not in (BAT, UNKNOWN):
            return self._bad_input(
                ctx, node, 0, "a BAT", src,
                hint="sort consumes materialized (head, tail) pairs",
            )
        return Shape(BAT, src.dtype, src.rows_lo, src.rows_hi, src.columns)

    def _shape_topn(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family not in (BAT, UNKNOWN):
            return self._bad_input(ctx, node, 0, "a BAT", src)
        op: TopN = node.op
        rows_hi = op.n if src.rows_hi is None else min(op.n, src.rows_hi)
        return Shape(BAT, src.dtype, 0, rows_hi, src.columns)

    def _shape_tail_filter(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family not in (BAT, UNKNOWN):
            return self._bad_input(ctx, node, 0, "a BAT", src)
        return Shape(BAT, src.dtype, 0, src.rows_hi, src.columns)

    # -- aggregation ---------------------------------------------------
    def _shape_groupby(self, ctx, node: PlanNode, ins) -> Shape:
        op: GroupAggregate = node.op
        expected = 1 if op.func == "count" else 2
        if len(ins) != expected:
            ctx.emit(
                "lineage.arity",
                "error",
                f"grouped {op.func} takes {expected} input(s), got {len(ins)}",
                node,
            )
            return _UNKNOWN
        for slot, shape in enumerate(ins):
            if shape.family != UNKNOWN and not shape.is_vector:
                return self._bad_input(ctx, node, slot, "a vector (slice or BAT)", shape)
        if len(ins) == 2:
            keys, values = ins
            if (
                keys.rows_hi is not None
                and values.rows_hi is not None
                and (keys.rows_lo > values.rows_hi or values.rows_lo > keys.rows_hi)
            ):
                ctx.emit(
                    "lineage.groupby-rows",
                    "warn",
                    f"groupby keys ({keys.describe()}) and values "
                    f"({values.describe()}) can never be tuple-aligned",
                    node,
                    hint="keys and values must come from the same partition lineage",
                )
        value_dtype = ins[1].dtype if len(ins) == 2 else None
        dtype = LNG if op.func == "count" else (DBL if value_dtype is DBL else LNG)
        return Shape(BAT, dtype, 0, ins[0].rows_hi, _merge_columns(ins))

    def _shape_aggr_merge(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family not in (BAT, UNKNOWN):
            return self._bad_input(
                ctx, node, 0, "a BAT of (group, partial) pairs", src
            )
        return Shape(BAT, src.dtype, 0, src.rows_hi, src.columns)

    def _shape_aggregate(self, ctx, node: PlanNode, ins) -> Shape:
        op: Aggregate = node.op
        src = ins[0]
        if src.family == CANDS and op.func != "count":
            ctx.emit(
                "lineage.aggregate-input",
                "error",
                f"aggregate {op.func!r} over a candidate list has no values "
                "to reduce",
                node,
                node.inputs[0],
                hint="only count() accepts candidate lists; fetch values first",
            )
            return _UNKNOWN
        if op.func == "count":
            return Shape(SCALAR, LNG, 1, 1, src.columns)
        dtype = DBL if src.dtype is DBL else (None if src.dtype is None else LNG)
        return Shape(SCALAR, dtype, 1, 1, src.columns)

    # -- exchange ------------------------------------------------------
    def _shape_pack(self, ctx, node: PlanNode, ins) -> Shape:
        families = {shape.family for shape in ins if shape.family != UNKNOWN}
        if SLICE in families:
            slot = next(i for i, s in enumerate(ins) if s.family == SLICE)
            return self._bad_input(
                ctx, node, slot, "a BAT, candidate list, or scalar", ins[slot],
                hint="pack concatenates materialized intermediates, not views",
            )
        if len(families) > 1:
            ctx.emit(
                "lineage.pack-mix",
                "error",
                f"pack mixes intermediate families {sorted(families)}; all "
                "inputs must come from clones of the same operator",
                node,
            )
            return _UNKNOWN
        family = next(iter(families), UNKNOWN)
        dtypes = {shape.dtype for shape in ins if shape.dtype is not None}
        if family == BAT and len(dtypes) > 1:
            names = sorted(d.name for d in dtypes)
            ctx.emit(
                "lineage.pack-dtype",
                "error",
                f"pack input dtypes differ: {names}; packed values would be "
                "silently coerced or rejected at run time",
                node,
            )
        dtype = next(iter(dtypes)) if len(dtypes) == 1 else None
        columns = _merge_columns(ins)
        if family == SCALAR:
            return Shape(BAT, dtype, len(ins), len(ins), columns)
        if family == UNKNOWN:
            return _UNKNOWN
        return Shape(family, dtype if family == BAT else OID, 0, _hi(*ins), columns)

    def _shape_gather(self, ctx, node: PlanNode, ins) -> Shape:
        # A gather is a pack whose inputs arrive over the wire; bytes
        # and ordering rules are identical.
        return self._shape_pack(ctx, node, ins)

    def _shape_exchange(self, ctx, node: PlanNode, ins) -> Shape:
        # Pure transport: the intermediate is unchanged, only its node
        # changes (which lineage does not track).
        return ins[0]

    def _shape_shuffle(self, ctx, node: PlanNode, ins) -> Shape:
        src = ins[0]
        if src.family == UNKNOWN:
            return _UNKNOWN
        if src.family == SCALAR:
            return self._bad_input(
                ctx, node, 0, "a slice, BAT, or candidate list", src,
                hint="a scalar has no oid range to shuffle on",
            )
        # Keeps the rows inside its oid range: somewhere in [0, all].
        return Shape(src.family, src.dtype, 0, src.rows_hi, src.columns)

    # -- fallback ------------------------------------------------------
    def _shape_default(self, ctx, node: PlanNode, ins) -> Shape:
        # Known arity but no specific shape rule: propagate conservatively.
        return _UNKNOWN
