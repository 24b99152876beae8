"""Property-based SQL correctness: random queries vs direct numpy.

Hypothesis generates random predicates/aggregates/groupings over a fixed
star schema; every compiled plan's result must equal a straightforward
numpy evaluation of the same query.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import SimulationConfig, laptop_machine
from repro.engine import execute
from repro.errors import ReproError, SqlPlanError
from repro.plan import validate_plan
from repro.sql import plan_sql
from repro.storage import Catalog, LNG, Table
from repro.workloads import TpchDataset

_CONFIG = SimulationConfig(machine=laptop_machine(8), data_scale=50.0)
_N, _M = 3_000, 80
_RNG = np.random.default_rng(20_16)
_CATALOG = Catalog()
_CATALOG.add(
    Table.from_arrays(
        "sales",
        {
            "item_id": (LNG, _RNG.integers(0, _M, _N)),
            "amount": (LNG, _RNG.integers(0, 100, _N)),
            "price": (LNG, _RNG.integers(1, 500, _N)),
        },
    )
)
_CATALOG.add(
    Table.from_arrays(
        "items",
        {
            "item_pk": (LNG, np.arange(_M)),
            "category": (LNG, _RNG.integers(0, 6, _M)),
        },
    )
)

_SALES = _CATALOG.table("sales")
_ITEMS = _CATALOG.table("items")


def numpy_mask(lo: int, hi: int, category: int | None) -> np.ndarray:
    amount = _SALES.column("amount").values
    mask = (amount >= lo) & (amount <= hi)
    if category is not None:
        cat_per_row = _ITEMS.column("category").values[
            _SALES.column("item_id").values
        ]
        mask &= cat_per_row == category
    return mask


@st.composite
def query_case(draw):
    lo = draw(st.integers(0, 99))
    hi = draw(st.integers(lo, 99))
    category = draw(st.one_of(st.none(), st.integers(0, 5)))
    agg = draw(st.sampled_from(["SUM(price)", "COUNT(*)", "MIN(price)", "MAX(price)"]))
    return lo, hi, category, agg


def build_sql(lo: int, hi: int, category: int | None, agg: str, grouped: bool) -> str:
    tables = "sales" if category is None and not grouped else "sales, items"
    where = [f"amount BETWEEN {lo} AND {hi}"]
    if category is not None or grouped:
        where.append("item_id = item_pk")
    if category is not None:
        where.append(f"category = {category}")
    sql = f"SELECT {'category, ' if grouped else ''}{agg} FROM {tables} " \
          f"WHERE {' AND '.join(where)}"
    if grouped:
        sql += " GROUP BY category ORDER BY category"
    return sql


def reduce_numpy(values: np.ndarray, agg: str):
    if agg == "COUNT(*)":
        return len(values)
    if len(values) == 0:
        return 0
    if agg == "SUM(price)":
        return int(values.sum())
    if agg == "MIN(price)":
        return int(values.min())
    return int(values.max())


class TestScalarQueries:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(query_case())
    def test_scalar_aggregate_matches_numpy(self, case):
        lo, hi, category, agg = case
        sql = build_sql(lo, hi, category, agg, grouped=False)
        plan = plan_sql(sql, _CATALOG)
        validate_plan(plan)
        result = execute(plan, _CONFIG)
        mask = numpy_mask(lo, hi, category)
        prices = _SALES.column("price").values[mask]
        expected = reduce_numpy(prices, agg)
        measured = result.outputs[0].value
        if agg in ("MIN(price)", "MAX(price)") and mask.sum() == 0:
            # Aggregates over empty input are 0 in this engine.
            assert measured == 0
        else:
            assert measured == expected, sql


class TestGroupedQueries:
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(st.integers(0, 99), st.sampled_from(["SUM(price)", "COUNT(*)"]))
    def test_grouped_aggregate_matches_numpy(self, lo, agg):
        sql = build_sql(lo, 99, None, agg, grouped=True)
        plan = plan_sql(sql, _CATALOG)
        validate_plan(plan)
        result = execute(plan, _CONFIG)
        grouped = result.outputs[0]
        mask = numpy_mask(lo, 99, None)
        cat_per_row = _ITEMS.column("category").values[
            _SALES.column("item_id").values
        ][mask]
        prices = _SALES.column("price").values[mask]
        for key, value in zip(grouped.head, grouped.tail):
            in_group = cat_per_row == key
            if agg == "COUNT(*)":
                assert value == int(in_group.sum()), sql
            else:
                assert value == int(prices[in_group].sum()), sql
        # Every non-empty group is present.
        present = set(int(k) for k in grouped.head)
        assert present == set(int(c) for c in np.unique(cat_per_row))


# ---------------------------------------------------------------------------
# The literal-type rule over every column of the TPC-H catalog
# ---------------------------------------------------------------------------
_TPCH = TpchDataset(scale_factor=1, seed=1)
_TPCH_COLUMNS = [
    (table.name, name)
    for table in sorted(_TPCH.catalog.tables(), key=lambda t: t.name)
    for name in table.column_names
]
_CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")


_STRINGS = st.one_of(
    st.text(alphabet="abcXYZ019#% _-", max_size=8).map(lambda text: f"'{text}'"),
    st.sampled_from(["'Brand#23'", "'SM BOX'", "'FRANCE'", "'1-URGENT'"]),
)


def _literals():
    return st.one_of(
        st.integers(-(2**40), 2**40).map(str),
        st.floats(-1e6, 1e6, allow_nan=False).map(lambda v: f"{v:.3f}"),
        _STRINGS,
        st.dates().map(lambda d: f"DATE '{d.isoformat()}'"),
    )


@st.composite
def tpch_comparison(draw):
    """``SELECT <agg> FROM t WHERE <col> <op> <literals>`` over any
    column of the sf=1 catalog, with literals of any type."""
    table, column = draw(st.sampled_from(_TPCH_COLUMNS))
    form = draw(st.sampled_from(["cmp", "between", "in", "like"]))
    if form == "cmp":
        where = f"{column} {draw(st.sampled_from(_CMP_OPS))} {draw(_literals())}"
    elif form == "between":
        where = f"{column} BETWEEN {draw(_literals())} AND {draw(_literals())}"
    elif form == "in":
        values = draw(st.lists(_literals(), min_size=1, max_size=4))
        negate = draw(st.sampled_from(["", "NOT "]))
        where = f"{column} {negate}IN ({', '.join(values)})"
    else:
        negate = draw(st.sampled_from(["", "NOT "]))
        where = f"{column} {negate}LIKE {draw(_STRINGS)}"
    agg = draw(st.sampled_from(
        ["COUNT(*)", f"COUNT({column})", f"SUM({column})", f"MIN({column})",
         f"MAX({column})", f"AVG({column})"]
    ))
    return f"SELECT {agg} FROM {table} WHERE {where}"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tpch_comparison())
def test_random_comparison_plans_or_fails_typed(sql):
    """A comparison either fails to plan with SqlPlanError, or plans and
    executes; nothing escapes as a non-ReproError (a numpy type error,
    say)."""
    try:
        plan = plan_sql(sql, _TPCH.catalog)
    except SqlPlanError:
        return
    except ReproError as exc:  # a lex or parse error is not a type rule
        pytest.fail(f"{sql!r} failed to plan with {type(exc).__name__}: {exc}")
    try:
        execute(plan, _TPCH.sim_config())
    except ReproError:
        pass
