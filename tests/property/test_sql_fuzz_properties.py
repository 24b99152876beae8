"""Fuzzing the SQL front end with mutated serving statements.

Each example takes one statement of each of the six templates the
serve-sql benchmark sends, then edits it a few times: it replaces,
deletes, inserts, duplicates or swaps tokens, drawing new ones from a
hostile vocabulary (unknown names, huge numbers, stray punctuation);
it swaps the text of a ``DATE`` literal for a malformed one; and it
wraps a span that starts at an operand in up to 2,000 parentheses.
:meth:`~repro.sql.PlanCache.template`, the live server's entry point,
may refuse the result, but only with a typed
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.sql import PlanCache, tokenize
from repro.sql.lexer import KEYWORDS, Token
from repro.workloads import TpchDataset

#: One statement per serve-sql template, with fixed literals.
STATEMENTS = (
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' "
    "AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24",
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > 500000",
    "SELECT c_nationkey, COUNT(*) FROM orders, customer "
    "WHERE o_custkey = c_custkey AND o_orderpriority <> '1-URGENT' "
    "AND o_orderdate >= DATE '1995-03-15' GROUP BY c_nationkey ORDER BY c_nationkey",
    "SELECT SUM(l_extendedprice) / 7 FROM lineitem, part "
    "WHERE l_partkey = p_partkey AND p_brand = 'Brand#23' "
    "AND p_container = 'MED BOX' AND l_quantity < 20",
    "SELECT n_name, SUM(l_extendedprice * (100 - l_discount)) "
    "FROM lineitem, part, supplier, nation "
    "WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey "
    "AND s_nationkey = n_nationkey AND p_type LIKE '%BRASS%' "
    "AND p_size < 15 AND l_quantity < 30 GROUP BY n_name ORDER BY n_name",
    "SELECT COUNT(*), SUM(c_acctbal) FROM customer WHERE c_acctbal > 500000 "
    "AND c_custkey NOT IN (SELECT o_custkey FROM orders)",
)

_VOCABULARY = (
    [Token("KEYWORD", word, 0) for word in sorted(KEYWORDS)]
    + [
        Token("PUNCT", p, 0)
        for p in ("(", ")", ",", "*", "+", "-", "/", ".", "=", "<", ">", "<>")
    ]
    + [
        Token("NUMBER", n, 0)
        for n in ("0", "1", "007", "1.5", ".5", "99999999999999999999999")
    ]
    + [Token("STRING", s, 0) for s in ("", "%", "Brand#23", "1994-01-01")]
    + [
        Token("IDENT", i, 0)
        for i in (
            "l_quantity", "l_shipdate", "c_acctbal", "o_custkey", "p_brand",
            "lineitem", "orders", "nope",
        )
    ]
)

#: Texts for a DATE literal: valid days, then what numpy parsed anyway.
_DATES = (
    "1994-01-01", "1996-02-29", "1994-13-45", "1995-02-29", "NaT", "today",
    "2020", "1994-01", "1994-1-1", " 1994-01-01", "", "10000-01-01",
)

_EDITS = ("replace", "delete", "insert", "duplicate", "swap", "date", "nest")


@pytest.fixture(scope="module")
def catalog():
    return TpchDataset(scale_factor=1).catalog


def _text(tokens: list[Token]) -> str:
    return " ".join(
        f"'{token.value}'" if token.type == "STRING" else token.value
        for token in tokens
    )


def _mutate(tokens: list[Token], data) -> None:
    edit = data.draw(st.sampled_from(_EDITS))
    i = data.draw(st.integers(0, len(tokens) - 1)) if tokens else 0
    if edit == "replace" and tokens:
        tokens[i] = data.draw(st.sampled_from(_VOCABULARY))
    elif edit == "delete" and tokens:
        del tokens[i]
    elif edit == "duplicate" and tokens:
        tokens.insert(i, tokens[i])
    elif edit == "swap" and tokens:
        j = data.draw(st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif edit == "date":
        text = Token("STRING", data.draw(st.sampled_from(_DATES)), 0)
        dates = [k + 1 for k, t in enumerate(tokens[:-1]) if t.value == "DATE"]
        if dates:
            tokens[data.draw(st.sampled_from(dates))] = text
        else:
            tokens[i:i] = [Token("KEYWORD", "DATE", 0), text]
    elif edit == "nest":
        operands = [
            k for k, t in enumerate(tokens)
            if t.type in ("IDENT", "NUMBER") or t.value in ("(", "SUM", "COUNT")
        ] or [i]
        i = data.draw(st.sampled_from(operands))
        j = data.draw(st.integers(i + 1, max(i + 1, len(tokens))))
        # Hypothesis raises the recursion limit by 2,000 frames while a
        # test runs, so only the deepest choice overflows the parser
        # without the nesting limit.
        depth = data.draw(st.sampled_from([1, 2, 64, 65, 400, 2000]))
        tokens[i:j] = (
            [Token("PUNCT", "(", 0)] * depth
            + tokens[i:j]
            + [Token("PUNCT", ")", 0)] * depth
        )
    else:
        tokens.insert(i, data.draw(st.sampled_from(_VOCABULARY)))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    statement=st.sampled_from(STATEMENTS),
    edits=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_only_typed_errors_escape(catalog, statement, edits, data):
    tokens = tokenize(statement)[:-1]
    for __ in range(edits):
        _mutate(tokens, data)
    try:
        PlanCache(catalog).template(_text(tokens))
    except ReproError:
        pass


@pytest.mark.parametrize("statement", STATEMENTS)
def test_unmutated_statements_plan(catalog, statement):
    assert PlanCache(catalog).template(statement).nodes()
