"""Independent answers: ``plan_sql`` + ``execute`` against stdlib sqlite3.

Every other answer check in the suite compares the engine with itself
(serial against parallel, memo on against off) or with numpy written
for one query.  Here the sf=1 TPC-H catalog is loaded into an in-memory
sqlite database and the join, anti-join, IN-list and LIKE statements run
through both.

Value mapping between the two:

* money and percentages are scaled integers in both databases (cents,
  whole percent), so integer sums compare exactly;
* string columns are dictionary codes in the engine and decoded text in
  sqlite; a grouped engine result carries its group's code, mapped back
  through the column's dictionary (codes follow the sorted dictionary,
  so ``ORDER BY`` of a string agrees with sqlite's binary collation);
* ``/`` on integers is true division in the engine and integer division
  in sqlite, so the sqlite side divides by a float literal; the
  quotients agree to a relative 1e-12;
* ``SUM`` over no rows is 0 in the engine and NULL in sqlite;
* a statement of scalar aggregates is one scalar output per aggregate
  in the engine and one row in sqlite;
* ``LIKE`` is case-sensitive in the engine, so sqlite runs with
  ``case_sensitive_like``.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.engine import execute
from repro.sql import plan_sql
from repro.storage import STR
from repro.storage.column import BAT, Scalar
from repro.workloads import TpchDataset

Q9 = (
    "SELECT n_name, SUM(l_extendedprice * (100 - l_discount)) "
    "FROM lineitem, part, supplier, nation "
    "WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey "
    "AND s_nationkey = n_nationkey AND p_type LIKE '%BRASS%' "
    "GROUP BY n_name ORDER BY n_name"
)
Q13 = (
    "SELECT c_nationkey, COUNT(*) FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_orderpriority <> '1-URGENT' "
    "GROUP BY c_nationkey ORDER BY c_nationkey"
)
BRAND_CONTAINER = (
    "SELECT SUM(l_extendedprice) / {divisor} FROM lineitem, part "
    "WHERE l_partkey = p_partkey AND p_brand = '{brand}' "
    "AND p_container = '{container}' AND l_quantity < {qty}"
)
NOT_IN_ORDERS = (
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > {bal} "
    "AND c_custkey NOT IN (SELECT o_custkey FROM orders)"
)
CONTAINER_IN = (
    "SELECT p_container, SUM(l_quantity) FROM lineitem, part "
    "WHERE l_partkey = p_partkey "
    "AND p_container IN ('SM BOX', 'LG CASE', 'JUMBO PACK', 'NO SUCH BOX') "
    "GROUP BY p_container ORDER BY p_container"
)
TYPE_NOT_LIKE = (
    "SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem, part "
    "WHERE l_partkey = p_partkey AND p_type NOT LIKE '%BRASS%' AND p_size < 30"
)


@pytest.fixture(scope="module")
def dataset() -> TpchDataset:
    return TpchDataset(scale_factor=1)


@pytest.fixture(scope="module")
def sqlite(dataset):
    db = sqlite3.connect(":memory:")
    db.execute("PRAGMA case_sensitive_like = ON")
    for table in dataset.catalog.tables():
        columns = list(table.columns())
        db.execute(f"CREATE TABLE {table.name} ({', '.join(c.name for c in columns)})")
        values = [
            col.decode(col.values) if col.dtype is STR else col.values.tolist()
            for col in columns
        ]
        marks = ", ".join("?" * len(columns))
        db.executemany(f"INSERT INTO {table.name} VALUES ({marks})", zip(*values))
    yield db
    db.close()


def engine_rows(dataset, sql: str):
    outputs = execute(plan_sql(sql, dataset.catalog), dataset.sim_config()).outputs
    if all(isinstance(output, Scalar) for output in outputs):
        values = tuple(output.value for output in outputs)
        return values[0] if len(values) == 1 else values
    (output,) = outputs
    assert isinstance(output, BAT)
    return list(zip(output.head.tolist(), output.tail.tolist()))


def test_q9_four_way_join_grouped_by_name(dataset, sqlite):
    codes = dataset.catalog.column("nation", "n_name").dictionary.index
    expected = [(codes(name), total) for name, total in sqlite.execute(Q9)]
    assert len(expected) > 5
    assert engine_rows(dataset, Q9) == expected


def test_q13_orders_customer_grouped_by_nation(dataset, sqlite):
    expected = [tuple(row) for row in sqlite.execute(Q13)]
    assert len(expected) > 5
    assert engine_rows(dataset, Q13) == expected


def test_lineitem_part_on_brand_and_container(dataset, sqlite):
    present = sqlite.execute(
        "SELECT p_brand, p_container FROM part ORDER BY p_partkey LIMIT 3"
    ).fetchall()
    literals = [(brand, container, qty) for brand, container in present
                for qty in (10, 30, 51)]
    literals.append(("Brand#11", "NO SUCH BOX", 51))  # matches no part
    answered = 0
    for brand, container, qty in literals:
        params = {"brand": brand, "container": container, "qty": qty}
        (expected,) = sqlite.execute(
            BRAND_CONTAINER.format(divisor="7.0", **params)
        ).fetchone()
        got = engine_rows(dataset, BRAND_CONTAINER.format(divisor="7", **params))
        answered += expected is not None
        assert got == pytest.approx(expected or 0, rel=1e-12), params
    assert answered >= 3


def test_customers_without_orders(dataset, sqlite):
    # The anti-join of customer keys against every order's customer key,
    # after balance filters keeping all, some and none of the customers.
    answered = []
    for bal in (-100000, 500000, 999999):
        sql = NOT_IN_ORDERS.format(bal=bal)
        count, total = sqlite.execute(sql).fetchone()
        assert engine_rows(dataset, sql) == (count, total or 0), bal
        answered.append(count)
    assert answered[0] > answered[1] > answered[2] == 0


def test_string_in_list_grouped_by_container(dataset, sqlite):
    codes = dataset.catalog.column("part", "p_container").dictionary.index
    expected = [(codes(name), total) for name, total in sqlite.execute(CONTAINER_IN)]
    assert len(expected) == 3  # 'NO SUCH BOX' matches no part
    assert engine_rows(dataset, CONTAINER_IN) == expected


def test_not_like_on_part_type(dataset, sqlite):
    count, total = sqlite.execute(TYPE_NOT_LIKE).fetchone()
    (brass,) = sqlite.execute(
        "SELECT COUNT(*) FROM lineitem, part "
        "WHERE l_partkey = p_partkey AND p_type LIKE '%BRASS%' AND p_size < 30"
    ).fetchone()
    assert count > 0 and brass > 0
    assert engine_rows(dataset, TYPE_NOT_LIKE) == (count, total)
