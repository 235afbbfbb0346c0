"""Concrete syntax: parse text to a Formula and print a Formula back.

Grammar, loosest binding first:

    formula := iff
    iff     := impl ("<->" impl)?           non-associative
    impl    := disj ("->" impl)?            right-associative
    disj    := conj ("|" conj)*             left-associative
    conj    := unary ("&" unary)*           left-associative
    unary   := "!" unary | "N" unary | "<N>" unary
             | "B" "{" idlist? "}" unary
             | "true" | "false" | ident | "(" formula ")"
    idlist  := ident ("," ident)*

The four binary levels are stated once, in ``_BINARY``: the parser and
the printer both read their precedence and grouping from that table.
Identifiers start with a lowercase letter, so N and B never collide
with them.  "<N> f" is input sugar for "!N !f"; the printer restores
it whenever a subtree has exactly that shape.  Whitespace between
tokens is insignificant.  Input is ASCII, so reported positions are
byte offsets.
"""

from __future__ import annotations

import re

from .formula import (
    And,
    Blame,
    Bottom,
    Coalition,
    Formula,
    Iff,
    Implies,
    Necessity,
    Not,
    Or,
    Prop,
    Top,
    possibly,
)

__all__ = ["ParseError", "parse", "format_formula"]


class ParseError(ValueError):
    """Lexical or grammatical error, with the offset it occurred at."""

    def __init__(self, position: int, expected: str, found: str) -> None:
        super().__init__(f"at offset {position}: expected {expected}, found {found}")
        self.position = position
        self.expected = expected
        self.found = found


# The binary connectives, loosest first: token, node type, and the side
# a chain of them grows on ("left", "right", or None: no chaining).  The
# prefix operators and atoms bind at level _UNARY, tighter than all.
_BINARY = (("<->", Iff, None), ("->", Implies, "right"), ("|", Or, "left"), ("&", And, "left"))
_UNARY = len(_BINARY)
_LEVELS = {node: (level, f" {op} ", grouping) for level, (op, node, grouping) in enumerate(_BINARY)}
_PREFIX = {"!": Not, "N": Necessity, "<N>": possibly}
_CONSTANTS = {"true": Top, "false": Bottom}

# Groups: 1 a symbol, 2 an identifier or keyword, 3 a character that
# starts no token (a lone "-" or "<" gets a hint at what was meant).
_TOKEN = re.compile(r"\s*(?:(<->|->|<N>|[(){},!&|NB])|([a-z][A-Za-z0-9_]*)|(\S))")
_LEX_EXPECTED = {"-": "'->'", "<": "'<->' or '<N>'"}


def _lex(text: str) -> list[tuple[str, int]]:
    """(token, offset) pairs, ending with ("", len(text)) for end of input."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 3:
            ch = m[3]
            raise ParseError(m.start(3), _LEX_EXPECTED.get(ch, "a token"), repr(ch))
        tokens.append((m[group], m.start(group)))
    tokens.append(("", len(text)))
    return tokens


def _is_ident(token: str) -> bool:
    return token[:1].islower() and token not in _CONSTANTS


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> str:
        return self._tokens[self._pos][0]

    def _fail(self, expected: str) -> ParseError:
        token, offset = self._tokens[self._pos]
        return ParseError(offset, expected, repr(token) if token else "end of input")

    def _take(self, token: str, expected: str) -> None:
        if self._peek() != token:
            raise self._fail(expected)
        self._pos += 1

    def _ident(self, expected: str) -> str:
        token = self._peek()
        if not _is_ident(token):
            raise self._fail(expected)
        self._pos += 1
        return token

    def binary(self, level: int) -> Formula:
        if level == _UNARY:
            return self.unary()
        op, node, grouping = _BINARY[level]
        left = self.binary(level + 1)
        while self._peek() == op:
            self._pos += 1
            if grouping == "right":
                return node(left, self.binary(level))
            left = node(left, self.binary(level + 1))
            if grouping is None:
                break
        return left

    def unary(self) -> Formula:
        token = self._peek()
        self._pos += 1
        if token in _PREFIX:
            return _PREFIX[token](self.unary())
        if token == "B":
            self._take("{", "'{'")
            members: list[str] = []
            if self._peek() != "}":
                members.append(self._ident("'}'"))
                while self._peek() == ",":
                    self._pos += 1
                    members.append(self._ident("an agent id"))
            self._take("}", "'}'")
            return Blame(Coalition(members), self.unary())
        if token == "(":
            inner = self.binary(0)
            self._take(")", "')'")
            return inner
        if token in _CONSTANTS:
            return _CONSTANTS[token]()
        if _is_ident(token):
            return Prop(token)
        self._pos -= 1
        raise self._fail("a formula")


def parse(text: str) -> Formula:
    parser = _Parser(_lex(text))
    result = parser.binary(0)
    if parser._peek():
        raise parser._fail("end of input")
    return result


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f."""
    return _fmt(f, 0)


def _fmt(f: Formula, required: int) -> str:
    """Text of f, parenthesized when it binds looser than level `required`."""
    # _key holds two facts, then the fields; reading it skips a property call per field.
    binary = _LEVELS.get(type(f))
    if binary is not None:
        level, op, grouping = binary
        left = _fmt(f._key[2], level if grouping == "left" else level + 1)
        text = left + op + _fmt(f._key[3], level if grouping == "right" else level + 1)
        return f"({text})" if level < required else text
    if isinstance(f, Prop):
        return f._key[2]
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if not isinstance(f, (Not, Necessity, Blame)):
        raise TypeError(f"not a formula: {f!r}")
    k = f._key  # the child is the last field
    if isinstance(f, Not) and isinstance(k[2], Necessity) and isinstance(k[2]._key[2], Not):
        head, k = "<N> ", k[2]._key[2]._key
    elif isinstance(f, Not):
        head = "!"
    elif isinstance(f, Necessity):
        head = "N "
    else:
        head = "B{" + ",".join(k[2].members) + "} "
    return head + _fmt(k[-1], _UNARY)
