"""Mini SQL front-end: lexer, parser, and serial-plan compiler."""

from .ast import SelectStatement
from .lexer import Token, statement_key, tokenize, tokens_key
from .parser import parse
from .planner import PlanCache, SqlPlanner, plan_sql

__all__ = [
    "PlanCache",
    "SelectStatement",
    "SqlPlanner",
    "Token",
    "parse",
    "plan_sql",
    "statement_key",
    "tokenize",
    "tokens_key",
]
