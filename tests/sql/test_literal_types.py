"""The literal-type rule: WHERE literals and aggregates must fit the column.

A dictionary-encoded (string) column stores codes, so comparing it with
a number, ordering it, or summing it would read the codes as values.
The planner refuses such statements with :class:`SqlPlanError` before
any kernel runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import execute
from repro.errors import SqlPlanError
from repro.sql import plan_sql
from repro.workloads import TpchDataset


@pytest.fixture(scope="module")
def dataset() -> TpchDataset:
    return TpchDataset(scale_factor=1, seed=1)


@pytest.mark.parametrize(
    "sql,message",
    [
        ("SELECT COUNT(*) FROM part WHERE p_brand = 5", "number compared"),
        ("SELECT COUNT(*) FROM part WHERE p_brand IN (1, 2)", "number compared"),
        ("SELECT COUNT(*) FROM part WHERE p_brand BETWEEN 1 AND 3", "takes only"),
        ("SELECT COUNT(*) FROM part WHERE p_brand IN ('Brand#23', 5)", "number compared"),
        ("SELECT COUNT(*) FROM part WHERE p_size IN (1, 'a')", "string literal"),
        ("SELECT SUM(p_brand) FROM part", "only COUNT"),
        ("SELECT MAX(p_brand) FROM part", "only COUNT"),
        ("SELECT COUNT(*) FROM part WHERE p_brand < 'Brand#2'", "takes only"),
        ("SELECT COUNT(*) FROM part WHERE p_size > 'a'", "string literal"),
    ],
    ids=[
        "string-eq-number", "string-in-numbers", "string-between",
        "string-in-mixed", "numeric-in-mixed", "sum-of-string",
        "max-of-string", "string-less-than", "numeric-greater-than-string",
    ],
)
def test_mismatched_literal_is_a_plan_error(dataset, sql, message):
    with pytest.raises(SqlPlanError, match=message):
        plan_sql(sql, dataset.catalog)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT COUNT(*) FROM part WHERE p_size LIKE '1%'",
        "SELECT COUNT(*) FROM part WHERE p_size NOT LIKE '1%'",
        "SELECT AVG(p_brand) FROM part",
        "SELECT MIN(p_brand) FROM part WHERE p_size < 10",
        "SELECT SUM(p_size + p_brand) FROM part",
        "SELECT p_brand * 2 FROM part",
        "SELECT p_size, COUNT(*) FROM part GROUP BY p_size HAVING COUNT(*) > 'a'",
        "SELECT COUNT(*) FROM part WHERE p_brand >= 'Brand#1' AND p_size = 3",
        "SELECT COUNT(*) FROM lineitem, part WHERE l_partkey = p_partkey "
        "AND p_container IN ('SM BOX', 7)",
        "SELECT COUNT(*) FROM lineitem WHERE l_shipdate < 'x' OR l_quantity < 3",
    ],
)
def test_other_mismatches_are_plan_errors(dataset, sql):
    with pytest.raises(SqlPlanError):
        plan_sql(sql, dataset.catalog)


def _count(dataset, sql) -> int:
    result = execute(plan_sql(sql, dataset.catalog), dataset.sim_config())
    (output,) = result.outputs
    return int(output.value)


def test_string_equality_in_and_like_still_answer(dataset):
    part = dataset.catalog.table("part")
    brand = part.column("p_brand")
    strings = np.asarray(brand.dictionary, dtype=object)[brand.values]
    assert _count(
        dataset, "SELECT COUNT(*) FROM part WHERE p_brand = 'Brand#23'"
    ) == int(np.sum(strings == "Brand#23"))
    assert _count(
        dataset, "SELECT COUNT(*) FROM part WHERE p_brand <> 'Brand#23'"
    ) == int(np.sum(strings != "Brand#23"))
    assert _count(
        dataset,
        "SELECT COUNT(*) FROM part WHERE p_brand NOT IN ('Brand#12', 'Brand#23')",
    ) == int(np.sum((strings != "Brand#12") & (strings != "Brand#23")))
    assert _count(
        dataset, "SELECT COUNT(*) FROM part WHERE p_brand LIKE 'Brand#2%'"
    ) == int(sum(s.startswith("Brand#2") for s in strings))
    assert _count(dataset, "SELECT COUNT(p_brand) FROM part") == len(part)


def test_numbers_against_numeric_columns_still_answer(dataset):
    size = dataset.catalog.table("part").column("p_size").values
    assert _count(
        dataset, "SELECT COUNT(*) FROM part WHERE p_size BETWEEN 5 AND 9.5"
    ) == int(np.sum((size >= 5) & (size <= 9.5)))
    assert _count(
        dataset, "SELECT COUNT(*) FROM part WHERE p_size IN (1, 2.0, -3)"
    ) == int(np.isin(size, [1, 2, -3]).sum())


@pytest.mark.parametrize(
    "sql,message",
    [
        (
            "SELECT COUNT(*) FROM customer "
            "WHERE c_mktsegment IN (SELECT o_orderpriority FROM orders)",
            "different dictionaries",
        ),
        (
            "SELECT COUNT(*) FROM customer "
            "WHERE c_mktsegment NOT IN (SELECT o_orderpriority FROM orders)",
            "different dictionaries",
        ),
        (
            "SELECT COUNT(*) FROM customer "
            "WHERE c_custkey IN (SELECT c_mktsegment FROM customer)",
            "string column compared with numeric",
        ),
        (
            "SELECT COUNT(*) FROM customer, nation WHERE c_mktsegment = n_name",
            "different dictionaries",
        ),
        (
            "SELECT COUNT(*) FROM customer, nation WHERE c_custkey = n_name",
            "string column compared with numeric",
        ),
    ],
    ids=[
        "in-subquery-other-dictionary", "not-in-subquery-other-dictionary",
        "number-in-strings", "join-other-dictionary", "join-number-string",
    ],
)
def test_mismatched_columns_are_a_plan_error(dataset, sql, message):
    """Without the rule these compared dictionary codes: at sf=1 the
    first returned 150 (right: 0), the second 0 (right: 150), the third
    5, and both joins 150."""
    with pytest.raises(SqlPlanError, match=message):
        plan_sql(sql, dataset.catalog)


def test_string_columns_over_one_dictionary_still_compare(dataset):
    customer = dataset.catalog.table("customer")
    segment = customer.column("c_mktsegment").values
    rich = customer.column("c_acctbal").values > 990_000
    wanted = np.isin(segment, segment[rich])
    assert _count(
        dataset,
        "SELECT COUNT(*) FROM customer WHERE c_mktsegment IN "
        "(SELECT c_mktsegment FROM customer WHERE c_acctbal > 990000)",
    ) == int(wanted.sum())
    assert _count(
        dataset,
        "SELECT COUNT(*) FROM customer WHERE c_mktsegment NOT IN "
        "(SELECT c_mktsegment FROM customer WHERE c_acctbal > 990000)",
    ) == int((~wanted).sum())
