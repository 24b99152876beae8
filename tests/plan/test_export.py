"""Plan export: JSON round-trips and Graphviz dot."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    AdaptiveParallelizer,
    ConvergenceParams,
    HeuristicParallelizer,
    intermediates_equal,
)
from repro.engine import execute
from repro.errors import PlanError
from repro.operators import LikePredicate, RangePredicate
from repro.plan import PlanBuilder, validate_plan
from repro.plan.export import plan_from_json, to_dot, to_json


def build_plan(catalog):
    b = PlanBuilder(catalog)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
    keys = b.fetch(sel, b.scan("facts", "fk"))
    joined = b.join(keys, b.scan("dims", "pk"))  # FK join: all rows match
    sizes = b.fetch(joined, b.scan("dims", "size"))
    qty = b.fetch(sel, b.scan("facts", "qty"))
    grouped = b.group_aggregate("sum", sizes, qty)
    named = b.select(b.scan("dims", "name"), LikePredicate("name-1%"))
    return b.build([grouped, b.aggregate("count", named)])


class TestJsonRoundTrip:
    def test_round_trip_preserves_results(self, small_catalog, sim_config):
        plan = build_plan(small_catalog)
        text = to_json(plan)
        restored = plan_from_json(text, small_catalog)
        validate_plan(restored)
        a = execute(plan, sim_config)
        b = execute(restored, sim_config)
        assert intermediates_equal(a.outputs[0], b.outputs[0])

    def test_round_trip_preserves_structure(self, small_catalog):
        plan = build_plan(small_catalog)
        restored = plan_from_json(to_json(plan), small_catalog)
        assert [n.kind for n in restored.nodes()] == [n.kind for n in plan.nodes()]

    def test_mutated_plan_round_trips(self, small_catalog, sim_config):
        """The point of the format: persisting *morphed* plans."""
        plan = build_plan(small_catalog)
        adaptive = AdaptiveParallelizer(
            sim_config,
            convergence=ConvergenceParams(number_of_cores=8, max_runs=25),
        ).optimize(plan)
        text = to_json(adaptive.best_plan)
        restored = plan_from_json(text, small_catalog)
        validate_plan(restored)
        a = execute(adaptive.best_plan, sim_config)
        b = execute(restored, sim_config)
        assert intermediates_equal(a.outputs[0], b.outputs[0])
        # order keys survive (pack ordering correctness)
        originals = [n.order_key for n in adaptive.best_plan.nodes()]
        copies = [n.order_key for n in restored.nodes()]
        assert originals == copies

    def test_json_is_valid_and_versioned(self, small_catalog):
        document = json.loads(to_json(build_plan(small_catalog)))
        assert document["version"] == 1
        assert document["outputs"]
        assert all("op" in node for node in document["nodes"])

    def test_unknown_version_rejected(self, small_catalog):
        with pytest.raises(PlanError, match="version"):
            plan_from_json('{"version": 9, "nodes": [], "outputs": []}', small_catalog)

    def test_unlabelled_scan_rejected(self, small_catalog):
        from repro.operators import Scan
        from repro.plan import Plan

        plan = Plan()
        scan = plan.add(Scan(small_catalog.column("facts", "val")))  # no label
        plan.set_outputs([scan])
        with pytest.raises(PlanError, match="label"):
            to_json(plan)


#: Marks a field that :func:`_edited` deletes instead of replacing.
DROP = object()


def _edited(catalog, kind, path, value):
    """A real export of a partitioned :func:`build_plan`, one field
    replaced by ``value`` (or dropped).  ``kind`` picks the first node
    of that operator kind; None edits the document itself."""
    plan = HeuristicParallelizer(4).parallelize(build_plan(catalog))
    document = json.loads(to_json(plan))
    target = document
    if kind is not None:
        target = next(n for n in document["nodes"] if n["op"]["kind"] == kind)
    *parents, key = path
    for step in parents:
        target = target[step]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    return json.dumps(document)


class TestMalformedDocuments:
    """Every malformed document fails with a PlanError, and indexes must
    point at nodes that exist: an input at one built before its
    consumer, an output at any node."""

    @pytest.mark.parametrize(
        "text",
        ["nope", "[1, 2]", '"a string"', "null", '{"version": 1}',
         '{"version": 1, "nodes": 3, "outputs": []}', "[" * 100_000],
        ids=["not-json", "list", "string", "null", "no-nodes", "nodes-not-list",
             "too-deep"],
    )
    def test_bad_top_level(self, small_catalog, text):
        with pytest.raises(PlanError):
            plan_from_json(text, small_catalog)

    @pytest.mark.parametrize(
        "kind,path,value",
        [
            ("select", ("inputs",), [5_000]),
            ("select", ("inputs",), [-1]),
            ("select", ("inputs",), [True]),
            ("select", ("inputs",), ["0"]),
            ("scan", ("inputs",), [0]),  # the first node names itself
            (None, ("outputs",), [-1]),
            (None, ("outputs",), [5_000]),
            (None, ("outputs",), 0),
            ("select", ("op",), 3),
            ("select", ("order_key",), "7"),
            ("select", ("label",), 7),
            ("select", ("inputs",), DROP),
            ("select", ("op", "predicate"), DROP),
            ("slice", ("op", "lo"), 1.5),
            ("scan", ("op", "hi"), float("inf")),
        ],
        ids=[
            "input-too-large", "input-negative", "input-bool", "input-str",
            "input-self", "output-negative", "output-too-large",
            "outputs-not-list", "op-not-object", "order-key-str", "label-int",
            "no-inputs-key", "no-predicate", "slice-float", "scan-infinite",
        ],
    )
    def test_bad_node(self, small_catalog, kind, path, value):
        text = _edited(small_catalog, kind, path, value)
        with pytest.raises(PlanError):
            plan_from_json(text, small_catalog)

    def test_catalog_errors_keep_their_type(self, small_catalog):
        from repro.errors import StorageError

        text = _edited(small_catalog, "scan", ("op", "column"), "nope")
        with pytest.raises(StorageError):
            plan_from_json(text, small_catalog)

    @pytest.mark.parametrize("bound", ["500", True, [500]])
    def test_non_numeric_range_bound_is_an_operator_error(self, small_catalog, bound):
        from repro.errors import OperatorError

        text = _edited(small_catalog, "select", ("op", "predicate", "hi"), bound)
        with pytest.raises(OperatorError, match="must be a number"):
            plan_from_json(text, small_catalog)


class TestDot:
    def test_dot_contains_every_node_and_edge(self, small_catalog):
        plan = build_plan(small_catalog)
        dot = to_dot(plan)
        nodes = plan.nodes()
        for node in nodes:
            assert f"n{node.nid} [" in dot
        edge_count = sum(len(n.inputs) for n in nodes)
        assert dot.count("->") == edge_count

    def test_dot_colors_by_kind(self, small_catalog):
        dot = to_dot(build_plan(small_catalog))
        assert "palegreen" in dot  # selects
        assert "lightblue" in dot  # join

    def test_dot_is_digraph(self, small_catalog):
        assert to_dot(build_plan(small_catalog)).startswith("digraph")
