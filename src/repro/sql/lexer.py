"""Tokenizer for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SqlLexError

KEYWORDS = {
    "SELECT",
    "FROM",
    "WHERE",
    "GROUP",
    "ORDER",
    "BY",
    "HAVING",
    "DISTINCT",
    "LIMIT",
    "AND",
    "OR",
    "NOT",
    "IN",
    "LIKE",
    "BETWEEN",
    "AS",
    "ASC",
    "DESC",
    "DATE",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "AVG",
}

_PUNCT = {"(", ")", ",", "*", "+", "-", "/", ".", "=", "<", ">", "<=", ">=", "<>"}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    type: str  # KEYWORD | IDENT | NUMBER | STRING | PUNCT | EOF
    value: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens; raises :class:`SqlLexError` on junk."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise SqlLexError(f"unterminated string literal at offset {i}")
            tokens.append(Token("STRING", text[i + 1 : j], i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot followed by a non-digit is punctuation
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, i))
            else:
                tokens.append(Token("IDENT", word.lower(), i))
            i = j
            continue
        two = text[i : i + 2]
        if two in ("<=", ">=", "<>"):
            tokens.append(Token("PUNCT", two, i))
            i += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, i))
            i += 1
            continue
        raise SqlLexError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(Token("EOF", "", n))
    return tokens


def statement_key(text: str) -> str:
    """The cache key of a statement: equal exactly when the tokens are.

    The lexer upper-cases keywords, lower-cases identifiers and drops
    whitespace between tokens, so ``select  x`` and ``SELECT x`` share a
    key; string literals keep their exact contents, so ``'MED BOX'``,
    ``'MED  BOX'`` and ``'med box'`` are three different statements.
    Raises :class:`SqlLexError` on text the lexer rejects.
    """
    return tokens_key(tokenize(text))


def tokens_key(tokens: list[Token]) -> str:
    """:func:`statement_key` of an already tokenized statement, so a
    cache can key and parse one token list."""
    return " ".join(
        f"'{token.value}'" if token.type == "STRING" else token.value
        for token in tokens[:-1]
    )
