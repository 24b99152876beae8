"""SQL lexer and parser."""

from __future__ import annotations

import pytest

from repro.errors import SqlLexError, SqlParseError
from repro.sql import parse, tokenize
from repro.sql.parser import MAX_DEPTH
from repro.sql.ast import (
    AggExpr,
    And,
    Between,
    BinaryExpr,
    ColumnRef,
    Comparison,
    InList,
    InSubquery,
    JoinCondition,
    Like,
    NumberLit,
    Or,
)
from repro.storage import date_value


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.type for t in tokens[:-1]] == ["KEYWORD"] * 3
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_lowercased(self):
        tokens = tokenize("LineItem l_ShipDate")
        assert tokens[0].value == "lineitem"
        assert tokens[1].value == "l_shipdate"

    def test_numbers(self):
        tokens = tokenize("42 3.14 .5")
        assert [t.value for t in tokens[:-1]] == ["42", "3.14", ".5"]

    def test_strings(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].type == "STRING"
        assert tokens[0].value == "hello world"

    def test_unterminated_string(self):
        with pytest.raises(SqlLexError):
            tokenize("'oops")

    def test_two_char_operators(self):
        tokens = tokenize("a <= b >= c <> d")
        ops = [t.value for t in tokens if t.type == "PUNCT"]
        assert ops == ["<=", ">=", "<>"]

    def test_qualified_name_dots(self):
        tokens = tokenize("t1.col")
        assert [t.value for t in tokens[:-1]] == ["t1", ".", "col"]

    def test_unexpected_character(self):
        with pytest.raises(SqlLexError):
            tokenize("a ! b")

    def test_eof_token(self):
        assert tokenize("")[-1].type == "EOF"


class TestParser:
    def test_minimal_select(self):
        stmt = parse("SELECT a FROM t")
        assert stmt.tables == ("t",)
        assert stmt.items[0].expr == ColumnRef("a")

    def test_aggregates(self):
        stmt = parse("SELECT SUM(a), COUNT(*), AVG(b) FROM t")
        assert stmt.items[0].expr == AggExpr("sum", ColumnRef("a"))
        assert stmt.items[1].expr == AggExpr("count", None)
        assert stmt.items[2].expr == AggExpr("avg", ColumnRef("b"))

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * c FROM t")
        expr = stmt.items[0].expr
        assert isinstance(expr, BinaryExpr) and expr.op == "+"
        assert isinstance(expr.right, BinaryExpr) and expr.right.op == "*"

    def test_parenthesised_expression(self):
        stmt = parse("SELECT (a + b) * c FROM t")
        expr = stmt.items[0].expr
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryExpr) and expr.left.op == "+"

    def test_where_conjunction(self):
        stmt = parse("SELECT a FROM t WHERE a < 5 AND b >= 3")
        assert isinstance(stmt.where, And)
        assert len(stmt.where.parts) == 2

    def test_where_disjunction_groups(self):
        stmt = parse("SELECT a FROM t WHERE (a < 5 AND b > 1) OR (a > 9)")
        assert isinstance(stmt.where, Or)
        assert isinstance(stmt.where.parts[0], And)

    def test_between(self):
        stmt = parse("SELECT a FROM t WHERE a BETWEEN 2 AND 6")
        assert stmt.where == Between(ColumnRef("a"), 2, 6)

    def test_like_and_not_like(self):
        stmt = parse("SELECT a FROM t WHERE s LIKE 'X%' AND s NOT LIKE '%Y'")
        like, notlike = stmt.where.parts
        assert like == Like(ColumnRef("s"), "X%")
        assert notlike == Like(ColumnRef("s"), "%Y", negate=True)

    def test_in_list(self):
        stmt = parse("SELECT a FROM t WHERE a IN (1, 2, 3)")
        assert stmt.where == InList(ColumnRef("a"), (1, 2, 3))

    def test_not_in_subquery(self):
        stmt = parse(
            "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u WHERE b > 2)"
        )
        assert isinstance(stmt.where, InSubquery)
        assert stmt.where.negate
        assert stmt.where.subquery.tables == ("u",)

    def test_join_condition_detected(self):
        stmt = parse("SELECT a FROM t, u WHERE t.a = u.b")
        assert stmt.where == JoinCondition(
            ColumnRef("a", "t"), ColumnRef("b", "u")
        )

    def test_date_literal(self):
        stmt = parse("SELECT a FROM t WHERE d >= DATE '1994-01-01'")
        assert stmt.where == Comparison(
            ColumnRef("d"), ">=", date_value("1994-01-01")
        )
        stmt = parse("SELECT a FROM t WHERE d < DATE '1996-02-29'")
        assert stmt.where.value == date_value("1996-02-29")

    @pytest.mark.parametrize(
        "text",
        [
            "1994-13-45",  # no such month
            "1994-02-30",  # no such day
            "1995-02-29",  # not a leap year
            "0000-01-01",  # no year zero
            "NaT",  # numpy's not-a-time
            "today",  # the host's clock
            "2020",  # partial dates
            "1994-01",
            "1994-1-1",
            " 1994-01-01",
            "1994-01-01T00",
            "+1994-01-01",
            "",
        ],
    )
    def test_date_literal_must_be_a_calendar_day(self, text):
        sql = f"SELECT a FROM t WHERE d < DATE '{text}'"
        with pytest.raises(SqlParseError, match="DATE literal at offset 31"):
            parse(sql)

    @pytest.mark.parametrize(
        "shape",
        [
            "WHERE {open}a < 1{close}",
            "WHERE a < 1 AND {open}b = 2 OR c = 3{close}",
        ],
    )
    def test_parenthesised_condition_depth(self, shape):
        def sql(depth):
            text = shape.format(open="(" * depth, close=")" * depth)
            return f"SELECT a FROM t {text}"

        parse(sql(MAX_DEPTH))
        for depth in (MAX_DEPTH + 1, 400):
            with pytest.raises(SqlParseError, match="nesting deeper than"):
                parse(sql(depth))

    @pytest.mark.parametrize(
        "build",
        [
            lambda n: "SELECT " + "(" * n + "a" + ")" * n + " FROM t",
            lambda n: "SELECT " + "SUM(" * n + "a" + ")" * n + " FROM t",
            lambda n: "SELECT a FROM t WHERE "
            + "a IN (SELECT a FROM t WHERE " * n
            + "a = 1"
            + ")" * n,
        ],
        ids=["parentheses", "aggregates", "subqueries"],
    )
    def test_nesting_past_the_limit_is_a_parse_error(self, build):
        for depth in (MAX_DEPTH + 1, 400):
            with pytest.raises(SqlParseError, match="deeper than"):
                parse(build(depth))

    def test_long_operator_chain_is_a_parse_error(self):
        # No parentheses at all, but a left-deep tree one level per
        # operator: the planner would walk it recursively.
        parse("SELECT " + " + ".join(["a"] * MAX_DEPTH) + " FROM t")
        for terms in (MAX_DEPTH + 1, 2000):
            with pytest.raises(SqlParseError, match="deeper than"):
                parse("SELECT " + " + ".join(["a"] * terms) + " FROM t")

    def test_negative_literal(self):
        stmt = parse("SELECT a FROM t WHERE a > -5")
        assert stmt.where.value == -5

    def test_group_order_limit(self):
        stmt = parse(
            "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a DESC LIMIT 10"
        )
        assert stmt.group_by == ColumnRef("a")
        assert stmt.order_by[0].descending
        assert stmt.limit == 10

    def test_alias(self):
        stmt = parse("SELECT SUM(a) AS total FROM t")
        assert stmt.items[0].alias == "total"

    def test_number_literal_item(self):
        stmt = parse("SELECT 100 * SUM(a) FROM t")
        expr = stmt.items[0].expr
        assert expr.left == NumberLit(100)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlParseError):
            parse("SELECT a FROM t extra")

    def test_missing_from_rejected(self):
        with pytest.raises(SqlParseError):
            parse("SELECT a")

    def test_not_without_like_or_in_rejected(self):
        with pytest.raises(SqlParseError):
            parse("SELECT a FROM t WHERE a NOT = 3")

    def test_empty_predicate_rejected(self):
        with pytest.raises(SqlParseError):
            parse("SELECT a FROM t WHERE a")
