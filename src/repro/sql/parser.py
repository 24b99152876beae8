"""Recursive-descent parser for the supported SQL subset.

Grammar (roughly)::

    query      := SELECT [DISTINCT] items FROM tables [WHERE cond]
                  [GROUP BY column] [HAVING having (AND having)*]
                  [ORDER BY order_items] [LIMIT n]
    items      := item (',' item)*
    item       := expr [AS ident]
    expr       := term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := NUMBER | column | '(' expr ')' | agg
    agg        := (SUM|COUNT|MIN|MAX|AVG) '(' (expr | '*') ')'
    cond       := and_cond (OR and_cond)*
    and_cond   := pred (AND pred)*
    pred       := '(' cond ')' | column predicate_tail
    tail       := cmp literal | BETWEEN lit AND lit | [NOT] LIKE str
                | [NOT] IN '(' (literals | query) ')' | '=' column
    having     := agg cmp literal

A ``DATE`` literal is exactly ``'YYYY-MM-DD'`` and a real calendar day.
Parentheses, aggregate calls and subqueries nest at most
:data:`MAX_DEPTH` deep, and so do expressions, where each arithmetic
operator and each aggregate call is one level: hostile nesting is a
:class:`~repro.errors.SqlParseError`, never a ``RecursionError`` of the
parser or of the planner that walks the syntax tree.

See docs/sql.md for the full dialect reference.
"""

from __future__ import annotations

import datetime
import re

from ..errors import SqlParseError
from ..storage.dtypes import date_value
from .ast import (
    AggExpr,
    HavingCondition,
    And,
    Between,
    BinaryExpr,
    ColumnRef,
    Comparison,
    Condition,
    Expr,
    InList,
    InSubquery,
    JoinCondition,
    Like,
    NumberLit,
    Or,
    OrderItem,
    SelectItem,
    SelectStatement,
)
from .lexer import Token, tokenize

_AGG_KEYWORDS = {"SUM", "COUNT", "MIN", "MAX", "AVG"}
_CMP_OPS = {"=", "<", ">", "<=", ">=", "<>"}
_DATE_TEXT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

#: Deepest nesting a statement may use: parentheses, aggregate calls
#: and subqueries inside one another, and levels of an expression.
#: Python's default recursion limit overflows at about 330 nested
#: parentheses, or a sum of about 400 terms in the planner.
MAX_DEPTH = 64


def parse(text: str, tokens: list[Token] | None = None) -> SelectStatement:
    """Parse a SQL string into a :class:`SelectStatement`.

    ``tokens`` is ``tokenize(text)`` when the caller already has it: a
    plan cache keys a statement and parses it from one token list.
    """
    parser = _Parser(tokenize(text) if tokens is None else tokens)
    stmt = parser.select_statement()
    parser.expect_eof()
    return stmt


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        #: Parentheses, aggregate calls and subqueries now open.
        self.depth = 0
        #: Levels of the expression the last expression method parsed:
        #: a column or number is one, and each operator or aggregate
        #: call is one above its deepest operand.
        self.expr_level = 0

    # -- token plumbing --------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def accept(self, type_: str, value: str | None = None) -> Token | None:
        token = self.peek()
        if token.type == type_ and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, type_: str, value: str | None = None) -> Token:
        token = self.accept(type_, value)
        if token is None:
            got = self.peek()
            want = value if value is not None else type_
            raise SqlParseError(
                f"expected {want} at offset {got.position}, got {got.value!r}"
            )
        return token

    def nested(self, token: Token, parse):
        """Run ``parse`` one nesting level deeper (the level opened at
        ``token``) and consume the ``)`` that closes it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise SqlParseError(
                f"nesting deeper than {MAX_DEPTH} levels at offset "
                f"{token.position}"
            )
        inner = parse()
        self.expect("PUNCT", ")")
        self.depth -= 1
        return inner

    def expect_eof(self) -> None:
        if self.peek().type != "EOF":
            token = self.peek()
            raise SqlParseError(
                f"unexpected trailing input at offset {token.position}: {token.value!r}"
            )

    # -- statement -------------------------------------------------------
    def select_statement(self) -> SelectStatement:
        self.expect("KEYWORD", "SELECT")
        distinct = bool(self.accept("KEYWORD", "DISTINCT"))
        items = [self.select_item()]
        while self.accept("PUNCT", ","):
            items.append(self.select_item())
        self.expect("KEYWORD", "FROM")
        tables = [self.expect("IDENT").value]
        while self.accept("PUNCT", ","):
            tables.append(self.expect("IDENT").value)
        where = None
        if self.accept("KEYWORD", "WHERE"):
            where = self.condition()
        group_by = None
        if self.accept("KEYWORD", "GROUP"):
            self.expect("KEYWORD", "BY")
            group_by = self.column_ref()
        having: list[HavingCondition] = []
        if self.accept("KEYWORD", "HAVING"):
            having.append(self.having_condition())
            while self.accept("KEYWORD", "AND"):
                having.append(self.having_condition())
        order_by: list[OrderItem] = []
        if self.accept("KEYWORD", "ORDER"):
            self.expect("KEYWORD", "BY")
            order_by.append(self.order_item())
            while self.accept("PUNCT", ","):
                order_by.append(self.order_item())
        limit = None
        if self.accept("KEYWORD", "LIMIT"):
            limit = int(self.expect("NUMBER").value)
        return SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            having=tuple(having),
            order_by=tuple(order_by),
            limit=limit,
            distinct=distinct,
        )

    def having_condition(self) -> HavingCondition:
        """``agg(expr) <cmp> literal``."""
        expr = self.expr()
        if not isinstance(expr, AggExpr):
            raise SqlParseError("HAVING requires an aggregate expression")
        op_token = self.peek()
        if op_token.type != "PUNCT" or op_token.value not in _CMP_OPS:
            raise SqlParseError(
                f"expected a comparison after HAVING aggregate at offset "
                f"{op_token.position}"
            )
        self.advance()
        return HavingCondition(expr, op_token.value, self.literal())

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.accept("KEYWORD", "AS"):
            alias = self.expect("IDENT").value
        return SelectItem(expr, alias)

    def order_item(self) -> OrderItem:
        expr = self.expr()
        descending = False
        if self.accept("KEYWORD", "DESC"):
            descending = True
        else:
            self.accept("KEYWORD", "ASC")
        return OrderItem(expr, descending)

    # -- expressions -----------------------------------------------------
    def expr(self) -> Expr:
        return self.chain(self.term, ("+", "-"))

    def term(self) -> Expr:
        return self.chain(self.factor, ("*", "/"))

    def chain(self, operand, operators: tuple[str, ...]) -> Expr:
        """``operand (operator operand)*``, grouped to the left."""
        left = operand()
        level = self.expr_level
        while (token := self.peek()).type == "PUNCT" and token.value in operators:
            self.advance()
            right = operand()
            level = self.above(token, max(level, self.expr_level))
            left = BinaryExpr(token.value, left, right)
        self.expr_level = level
        return left

    @staticmethod
    def above(token: Token, level: int) -> int:
        """The level over ``level``, refused past :data:`MAX_DEPTH`:
        the planner walks expressions recursively."""
        if level >= MAX_DEPTH:
            raise SqlParseError(
                f"expression deeper than {MAX_DEPTH} levels at offset "
                f"{token.position}"
            )
        return level + 1

    def factor(self) -> Expr:
        token = self.peek()
        if token.type == "NUMBER":
            self.advance()
            self.expr_level = 1
            return NumberLit(_number(token.value))
        if token.type == "KEYWORD" and token.value in _AGG_KEYWORDS:
            self.advance()
            self.expect("PUNCT", "(")
            if token.value == "COUNT" and self.accept("PUNCT", "*"):
                self.expect("PUNCT", ")")
                self.expr_level = 2
                return AggExpr("count", None)
            arg = self.nested(token, self.expr)
            self.expr_level = self.above(token, self.expr_level)
            return AggExpr(token.value.lower(), arg)
        if self.accept("PUNCT", "("):
            return self.nested(token, self.expr)
        if token.type == "IDENT":
            self.expr_level = 1
            return self.column_ref()
        raise SqlParseError(
            f"expected an expression at offset {token.position}, got {token.value!r}"
        )

    def column_ref(self) -> ColumnRef:
        first = self.expect("IDENT").value
        if self.accept("PUNCT", "."):
            second = self.expect("IDENT").value
            return ColumnRef(second, table=first)
        return ColumnRef(first)

    # -- predicates --------------------------------------------------------
    def condition(self) -> Condition:
        parts = [self.and_condition()]
        while self.accept("KEYWORD", "OR"):
            parts.append(self.and_condition())
        if len(parts) == 1:
            return parts[0]
        return Or(tuple(parts))

    def and_condition(self) -> Condition:
        parts = [self.predicate()]
        while self.accept("KEYWORD", "AND"):
            parts.append(self.predicate())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts))

    def predicate(self) -> Condition:
        token = self.peek()
        if self.accept("PUNCT", "("):
            return self.nested(token, self.condition)
        column = self.column_ref()
        negate = bool(self.accept("KEYWORD", "NOT"))
        if self.accept("KEYWORD", "LIKE"):
            pattern = self.expect("STRING").value
            return Like(column, pattern, negate=negate)
        if self.accept("KEYWORD", "IN"):
            return self._in_tail(column, negate)
        if negate:
            raise SqlParseError("NOT is only supported before LIKE and IN")
        if self.accept("KEYWORD", "BETWEEN"):
            lo = self.literal()
            self.expect("KEYWORD", "AND")
            hi = self.literal()
            return Between(column, lo, hi)
        op_token = self.peek()
        if op_token.type == "PUNCT" and op_token.value in _CMP_OPS:
            self.advance()
            # Column-to-column comparison is a join condition.
            nxt = self.peek()
            if op_token.value == "=" and nxt.type == "IDENT":
                return JoinCondition(column, self.column_ref())
            return Comparison(column, op_token.value, self.literal())
        raise SqlParseError(
            f"expected a predicate operator at offset {op_token.position}, "
            f"got {op_token.value!r}"
        )

    def _in_tail(self, column: ColumnRef, negate: bool) -> Condition:
        self.expect("PUNCT", "(")
        if self.peek().type == "KEYWORD" and self.peek().value == "SELECT":
            sub = self.nested(self.peek(), self.select_statement)
            return InSubquery(column, sub, negate=negate)
        values = [self.literal()]
        while self.accept("PUNCT", ","):
            values.append(self.literal())
        self.expect("PUNCT", ")")
        return InList(column, tuple(values), negate=negate)

    def literal(self) -> float | int | str:
        token = self.peek()
        if token.type == "NUMBER":
            self.advance()
            return _number(token.value)
        if token.type == "STRING":
            self.advance()
            return token.value
        if token.type == "KEYWORD" and token.value == "DATE":
            self.advance()
            return _date(self.expect("STRING"))
        if token.type == "PUNCT" and token.value == "-":
            self.advance()
            return -_number(self.expect("NUMBER").value)
        raise SqlParseError(
            f"expected a literal at offset {token.position}, got {token.value!r}"
        )


def _date(token: Token) -> int:
    """The day number of a ``DATE`` literal's string token."""
    text = token.value
    if _DATE_TEXT.fullmatch(text):
        try:
            datetime.date.fromisoformat(text)
        except ValueError:
            pass
        else:
            return date_value(text)
    raise SqlParseError(
        f"DATE literal at offset {token.position} must be a calendar day "
        f"'YYYY-MM-DD', got {text!r}"
    )


def _number(text: str) -> float | int:
    if "." in text:
        return float(text)
    return int(text)
