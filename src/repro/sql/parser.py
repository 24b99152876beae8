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

See docs/sql.md for the full dialect reference.
"""

from __future__ import annotations

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
        left = self.term()
        while True:
            if self.accept("PUNCT", "+"):
                left = BinaryExpr("+", left, self.term())
            elif self.accept("PUNCT", "-"):
                left = BinaryExpr("-", left, self.term())
            else:
                return left

    def term(self) -> Expr:
        left = self.factor()
        while True:
            if self.accept("PUNCT", "*"):
                left = BinaryExpr("*", left, self.factor())
            elif self.accept("PUNCT", "/"):
                left = BinaryExpr("/", left, self.factor())
            else:
                return left

    def factor(self) -> Expr:
        token = self.peek()
        if token.type == "NUMBER":
            self.advance()
            return NumberLit(_number(token.value))
        if token.type == "KEYWORD" and token.value in _AGG_KEYWORDS:
            self.advance()
            self.expect("PUNCT", "(")
            if token.value == "COUNT" and self.accept("PUNCT", "*"):
                self.expect("PUNCT", ")")
                return AggExpr("count", None)
            arg = self.expr()
            self.expect("PUNCT", ")")
            return AggExpr(token.value.lower(), arg)
        if self.accept("PUNCT", "("):
            inner = self.expr()
            self.expect("PUNCT", ")")
            return inner
        if token.type == "IDENT":
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
        if self.accept("PUNCT", "("):
            inner = self.condition()
            self.expect("PUNCT", ")")
            return inner
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
            sub = self.select_statement()
            self.expect("PUNCT", ")")
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
            value = self.expect("STRING").value
            return date_value(value)
        if token.type == "PUNCT" and token.value == "-":
            self.advance()
            return -_number(self.expect("NUMBER").value)
        raise SqlParseError(
            f"expected a literal at offset {token.position}, got {token.value!r}"
        )


def _number(text: str) -> float | int:
    if "." in text:
        return float(text)
    return int(text)
