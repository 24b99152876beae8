"""Fuzzing ``plan_from_json`` with mutated real exports.

Each example takes a real :func:`~repro.plan.to_json` export (a serial
plan with a join, a group-by and a LIKE filter, and its partitioned
form with slices and packs), then drops keys, swaps values for ones of
another type, and moves node indexes out of range.  Loading the result
-- and analyzing it, which is what ``repro lint --plan-json`` does next
-- may fail, but only with a typed :class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HeuristicParallelizer
from repro.errors import ReproError
from repro.operators import LikePredicate, RangePredicate
from repro.plan import PlanBuilder, analyze_plan, plan_from_json, to_json
from repro.storage import LNG, STR, Catalog, Table

_RNG = np.random.default_rng(7)
_N, _M = 500, 40
_CATALOG = Catalog("fuzz")
_CATALOG.add(
    Table.from_arrays(
        "facts",
        {
            "fk": (LNG, _RNG.integers(0, _M, _N)),
            "val": (LNG, _RNG.integers(0, 1_000, _N)),
            "qty": (LNG, _RNG.integers(1, 50, _N)),
        },
    )
)
_CATALOG.add(
    Table.from_arrays(
        "dims",
        {
            "pk": (LNG, np.arange(_M)),
            "size": (LNG, _RNG.integers(1, 10, _M)),
            "name": (STR, [f"name-{i % 7}" for i in range(_M)]),
        },
    )
)


def _plan():
    b = PlanBuilder(_CATALOG)
    sel = b.select(b.scan("facts", "val"), RangePredicate(hi=500))
    keys = b.fetch(sel, b.scan("facts", "fk"))
    sizes = b.fetch(b.join(keys, b.scan("dims", "pk")), b.scan("dims", "size"))
    grouped = b.group_aggregate("sum", sizes, b.fetch(sel, b.scan("facts", "qty")))
    named = b.select(b.scan("dims", "name"), LikePredicate("name-1%"))
    return b.build([grouped, b.aggregate("count", named)])


_EXPORTS = (
    to_json(_plan()),
    to_json(HeuristicParallelizer(4).parallelize(_plan())),
)

#: Replacement values of every JSON type.
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "lo", "hi", "type"]),
                    st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """Every (container, key) pair in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(document, data) -> None:
    """One edit: drop a key, swap a value, or move a node index."""
    path = data.draw(st.sampled_from(list(_paths(document))))
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    is_index = len(path) >= 2 and path[-2] in ("inputs", "outputs")
    edit = data.draw(st.sampled_from(["drop", "swap", "index"]))
    if edit == "drop" and isinstance(parent, dict):
        del parent[key]
    elif edit == "index" and is_index:
        nodes = document.get("nodes")
        count = len(nodes) if isinstance(nodes, list) else 1
        parent[key] = data.draw(st.sampled_from([-1, -count, count, count + 1]))
    else:
        parent[key] = data.draw(_VALUES)


@settings(max_examples=150, deadline=None)
@given(
    export=st.sampled_from(_EXPORTS),
    edits=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_only_typed_errors_escape(export, edits, data):
    document = json.loads(export)
    for __ in range(edits):
        _mutate(document, data)
    try:
        plan = plan_from_json(json.dumps(document), _CATALOG)
        analyze_plan(plan)
    except ReproError:
        pass


def test_exports_load_unedited():
    for export in _EXPORTS:
        assert analyze_plan(plan_from_json(export, _CATALOG)).summary()
