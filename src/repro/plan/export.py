"""Plan export: JSON documents and Graphviz dot.

The paper's companion tools (Stethoscope [12]) visualize MAL plans as
data-flow graphs -- Figure 7 is such a rendering.  ``to_dot`` produces
the equivalent for our plans; ``to_json``/``plan_from_json`` give a
stable interchange format for storing morphed plans next to a query
cache (plans reference catalog columns by table/column name, so a
catalog with the same schema is needed to re-instantiate them).
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import PlanError, ReproError
from ..operators.aggregate import Aggregate
from ..operators.calc import Calc
from ..operators.exchange import Pack
from ..operators.groupby import AggrMerge, GroupAggregate
from ..operators.join import Join, SemiJoin
from ..operators.literal import Literal
from ..operators.project import Fetch, HeadsOf, Mirror
from ..operators.scan import Scan
from ..operators.select import (
    CandIntersect,
    CandUnion,
    EqualsPredicate,
    InPredicate,
    LikePredicate,
    RangePredicate,
    Select,
)
from ..operators.slice import PartitionSlice, ValuePartition
from ..operators.sort import Sort, TopN
from ..storage.catalog import Catalog
from .analysis import analyze_plan
from .graph import Plan, PlanNode

# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _predicate_spec(predicate) -> dict[str, Any]:
    if isinstance(predicate, RangePredicate):
        return {
            "type": "range",
            "lo": predicate.lo,
            "hi": predicate.hi,
            "lo_inclusive": predicate.lo_inclusive,
            "hi_inclusive": predicate.hi_inclusive,
        }
    if isinstance(predicate, EqualsPredicate):
        return {"type": "equals", "value": predicate.value, "negate": predicate.negate}
    if isinstance(predicate, InPredicate):
        return {
            "type": "in",
            "values": list(predicate.values),
            "negate": predicate.negate,
        }
    if isinstance(predicate, LikePredicate):
        return {
            "type": "like",
            "pattern": predicate.pattern,
            "negate": predicate.negate,
        }
    raise PlanError(f"cannot serialize predicate {type(predicate).__name__}")


def _predicate_from_spec(spec: dict[str, Any]):
    kind = spec["type"]
    if kind == "range":
        return RangePredicate(
            spec["lo"],
            spec["hi"],
            lo_inclusive=spec["lo_inclusive"],
            hi_inclusive=spec["hi_inclusive"],
        )
    if kind == "equals":
        return EqualsPredicate(spec["value"], negate=spec["negate"])
    if kind == "in":
        return InPredicate(spec["values"], negate=spec["negate"])
    if kind == "like":
        return LikePredicate(spec["pattern"], negate=spec["negate"])
    raise PlanError(f"unknown predicate type {kind!r}")


def _op_spec(node: PlanNode, scan_names: dict[int, tuple[str, str]]) -> dict[str, Any]:
    op = node.op
    if isinstance(op, Scan):
        table_column = scan_names.get(node.nid)
        if table_column is None:
            raise PlanError(
                f"scan #{node.nid} has no table/column label; build scans "
                "through PlanBuilder or the SQL planner to export them"
            )
        table, column = table_column
        return {"kind": "scan", "table": table, "column": column,
                "lo": op.lo, "hi": op.hi}
    if isinstance(op, Select):
        return {"kind": "select", "predicate": _predicate_spec(op.predicate)}
    if isinstance(op, Fetch):
        return {"kind": "fetch", "alignment": op.alignment}
    if isinstance(op, SemiJoin):
        return {"kind": "semijoin", "negate": op.negate}
    if isinstance(op, Join):
        return {"kind": "join"}
    if isinstance(op, Mirror):
        return {"kind": "mirror"}
    if isinstance(op, HeadsOf):
        return {"kind": "heads"}
    if isinstance(op, Calc):
        return {"kind": "calc", "op": op.op}
    if isinstance(op, GroupAggregate):
        return {"kind": "groupby", "func": op.func}
    if isinstance(op, AggrMerge):
        return {"kind": "aggr_merge", "func": op.func}
    if isinstance(op, Aggregate):
        return {"kind": "aggregate", "func": op.func}
    if isinstance(op, Sort):
        return {"kind": "sort", "descending": op.descending, "by": op.by}
    if isinstance(op, TopN):
        return {"kind": "topn", "n": op.n}
    if isinstance(op, Pack):
        return {"kind": "pack"}
    if isinstance(op, CandUnion):
        return {"kind": "cand_union"}
    if isinstance(op, CandIntersect):
        return {"kind": "cand_intersect"}
    if isinstance(op, Literal):
        return {"kind": "literal", "value": op.value}
    if isinstance(op, PartitionSlice):
        return {"kind": "slice", "lo": op.lo, "hi": op.hi}
    if isinstance(op, ValuePartition):
        return {"kind": "vpartition", "lo": op.lo, "hi": op.hi}
    raise PlanError(f"cannot serialize operator kind {node.kind!r}")


def to_json(plan: Plan, *, analyze: bool = False) -> str:
    """Serialize a plan (operators, edges, outputs) to a JSON string.

    Scans are stored by table/column name using the ``table.column``
    labels that :class:`PlanBuilder` and the SQL planner attach.

    With ``analyze=True`` the static plan analyzer runs and its
    diagnostics ride along under a ``"diagnostics"`` key (with node ids
    rewritten to node *indexes* in the document), so an exported plan
    carries its own health report.  :func:`plan_from_json` ignores the
    key on import.
    """
    scan_names: dict[int, tuple[str, str]] = {}
    for node in plan.nodes():
        if node.kind == "scan" and node.label and "." in node.label:
            table, column = node.label.split(".", 1)
            scan_names[node.nid] = (table, column)
    nodes = []
    index = {node.nid: i for i, node in enumerate(plan.nodes())}
    for node in plan.nodes():
        nodes.append(
            {
                "op": _op_spec(node, scan_names),
                "inputs": [index[child.nid] for child in node.inputs],
                "order_key": node.order_key,
                "label": node.label,
            }
        )
    outputs = [index[out.nid] for out in plan.outputs]
    document: dict[str, Any] = {"version": 1, "nodes": nodes, "outputs": outputs}
    if analyze:
        report = analyze_plan(plan)
        diagnostics = []
        for diag in report.to_dicts():
            # nids are process-local counters; indexes survive round-trips.
            diag["nodes"] = [index[nid] for nid in diag["nodes"] if nid in index]
            diagnostics.append(diag)
        document["diagnostics"] = diagnostics
    return json.dumps(document)


def _checked(value: Any, kind: type, what: str, *, nullable: bool = False) -> Any:
    """``value`` if it is a ``kind`` (or null when ``nullable``), else a
    PlanError; JSON booleans are not integers here."""
    if value is None and nullable:
        return value
    if isinstance(value, bool) or not isinstance(value, kind):
        raise PlanError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def _index(value: Any, bound: int, what: str) -> int:
    """``value`` as a node index in ``[0, bound)``, else a PlanError."""
    if not 0 <= _checked(value, int, f"{what} index") < bound:
        raise PlanError(f"{what} index {value} is not in [0, {bound})")
    return value


def _op_from_spec(spec: dict[str, Any], catalog: Catalog):
    kind = spec["kind"]
    if kind == "scan":
        column = catalog.column(spec["table"], spec["column"])
        return Scan(column, spec["lo"], spec["hi"])
    if kind == "select":
        return Select(_predicate_from_spec(spec["predicate"]))
    if kind == "fetch":
        return Fetch(alignment=spec["alignment"])
    if kind == "semijoin":
        return SemiJoin(negate=spec["negate"])
    if kind == "join":
        return Join()
    if kind == "mirror":
        return Mirror()
    if kind == "heads":
        return HeadsOf()
    if kind == "calc":
        return Calc(spec["op"])
    if kind == "groupby":
        return GroupAggregate(spec["func"])
    if kind == "aggr_merge":
        return AggrMerge(spec["func"])
    if kind == "aggregate":
        return Aggregate(spec["func"])
    if kind == "sort":
        return Sort(descending=spec["descending"], by=spec["by"])
    if kind == "topn":
        return TopN(spec["n"])
    if kind == "pack":
        return Pack()
    if kind == "cand_union":
        return CandUnion()
    if kind == "cand_intersect":
        return CandIntersect()
    if kind == "literal":
        return Literal(spec["value"])
    if kind == "slice":
        # Fraction units are integers; the partition analysis relies on it.
        return PartitionSlice(
            _checked(spec["lo"], int, "slice lo"), _checked(spec["hi"], int, "slice hi")
        )
    if kind == "vpartition":
        return ValuePartition(spec["lo"], spec["hi"])
    raise PlanError(f"unknown operator kind {kind!r}")


def _plan_from_document(document: Any, catalog: Catalog) -> Plan:
    if not isinstance(document, dict):
        raise PlanError(
            f"a plan document is a JSON object, not {type(document).__name__}"
        )
    if document.get("version") != 1:
        raise PlanError(f"unsupported plan format version {document.get('version')!r}")
    built: list[PlanNode] = []
    for spec in document["nodes"]:
        # An input must be built before its consumer: indexes point back.
        inputs = [built[_index(i, len(built), "input")] for i in spec["inputs"]]
        node = PlanNode(
            _op_from_spec(spec["op"], catalog),
            inputs,
            order_key=_checked(spec["order_key"], int, "order_key", nullable=True),
            label=_checked(spec["label"], str, "label", nullable=True),
        )
        built.append(node)
    return Plan([built[_index(i, len(built), "output")] for i in document["outputs"]])


def plan_from_json(text: str, catalog: Catalog) -> Plan:
    """Re-instantiate a plan exported by :func:`to_json`.

    A malformed document -- invalid JSON, a missing key, a value of the
    wrong type, an input index not below its node's position or an
    output index not below the node count -- raises
    :class:`~repro.errors.PlanError`; errors the catalog or an
    operator raise (unknown column, bad parameter) keep their own
    :class:`~repro.errors.ReproError` type.
    """
    try:
        return _plan_from_document(json.loads(text), catalog)
    except ReproError:
        raise
    except (
        AttributeError, IndexError, KeyError, OverflowError, RecursionError,
        TypeError, ValueError,
    ) as exc:
        raise PlanError(f"malformed plan document: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# Graphviz
# ---------------------------------------------------------------------------

_DOT_COLORS = {
    "select": "palegreen",
    "join": "lightblue",
    "semijoin": "lightblue",
    "pack": "burlywood",
    "fetch": "khaki",
    "groupby": "plum",
    "aggregate": "plum",
    "aggr_merge": "plum",
    "scan": "white",
    "slice": "whitesmoke",
}


def to_dot(plan: Plan, *, title: str = "plan") -> str:
    """A Graphviz dot rendering of the plan's data-flow graph.

    Colors follow the paper's tomograph convention (green selects, blue
    joins, brown exchange unions).
    """
    lines = [f'digraph "{title}" {{', "  rankdir=BT;", "  node [shape=box];"]
    for node in plan.nodes():
        color = _DOT_COLORS.get(node.kind, "lightgray")
        label = node.describe().replace('"', "'")
        emphasis = ", penwidth=2" if node in plan.outputs else ""
        lines.append(
            f'  n{node.nid} [label="{label}", style=filled, '
            f'fillcolor={color}{emphasis}];'
        )
    for node in plan.nodes():
        for child in node.inputs:
            lines.append(f"  n{child.nid} -> n{node.nid};")
    lines.append("}")
    return "\n".join(lines)
