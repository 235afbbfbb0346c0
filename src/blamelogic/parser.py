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

``parse`` lexes with one ``findall`` and climbs precedence in one loop:
``binary(level)`` reads a unary operand, then each binary operator of that
level or tighter.  An error re-reads the text with the same regex to find its offset.
Every node comes from one table, so equal subformulas of a text are one
object; ``_parse`` lets a caller share that table across several texts.
"""

from __future__ import annotations

import re
from itertools import islice

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
)

__all__ = ["ParseError", "parse", "format_formula"]


class ParseError(ValueError):
    """Lexical or grammatical error, with the offset it occurred at."""

    def __init__(self, position: int, expected: str, found: str) -> None:
        super().__init__(f"at offset {position}: expected {expected}, found {found}")
        self.position, self.expected, self.found = position, expected, found

    def __reduce__(self):  # args hold only the message
        return type(self), (self.position, self.expected, self.found)


# The binary connectives, loosest first: token, node type, and the side
# a chain of them grows on ("left", "right", or None: no chaining).  The
# prefix operators and atoms bind at level _UNARY, tighter than all.
_BINARY = (("<->", Iff, None), ("->", Implies, "right"), ("|", Or, "left"), ("&", And, "left"))
_UNARY = len(_BINARY)
_LEVELS = {node: (level, f" {op} ", grouping) for level, (op, node, grouping) in enumerate(_BINARY)}
_INFIX = {op: (level, node, grouping) for level, (op, node, grouping) in enumerate(_BINARY)}
# Each prefix operator wraps its operand in these node types ("<N>" is "!N !").
_PREFIX = {"!": (Not,), "N": (Necessity,), "<N>": (Not, Necessity, Not)}
_CONSTANTS = {"true": Top, "false": Bottom}
_KEYWORDS = {node: word for word, node in _CONSTANTS.items()}
_HEADS = {Not: "!", Necessity: "N ", Blame: None}  # a Blame node's head names its coalition

# A symbol, an identifier or keyword, or a character that starts no token
# (a lone "-" or "<" gets a hint at what was meant).  Nothing backtracks.
_TOKEN = re.compile(r"<->|->|<N>|[(){},!&|NB]|[a-z][A-Za-z0-9_]*|\S")
_SYMBOLS = frozenset(("<->", "->", "<N>", *"(){},!&|NB"))
_LEX_EXPECTED = {"-": "'->'", "<": "'<->' or '<N>'"}

# Parentheses nest at most this deep (two stack frames a level), or "formula nested too deeply".
_MAX_NESTING = 180


class _NestingError(ParseError):
    def __str__(self) -> str:
        return "formula nested too deeply"


def _is_token(token: str) -> bool:
    return token in _SYMBOLS or "a" <= token[0] <= "z"


class _Parser:
    def __init__(self, text: str, tokens: list[str], nodes: dict) -> None:
        self._text = text
        self._tokens = tokens
        self._pos = self._depth = 0
        # Atoms by name, coalitions by raw member tuple, and other nodes by
        # (type, id(child), ...): the table holds the children, so ids stay valid.
        self._nodes = nodes

    def _fail(self, expected: str, error: type[ParseError] = ParseError) -> ParseError:
        token = self._tokens[self._pos]  # "" is end of input, at offset len(text)
        match = next(islice(_TOKEN.finditer(self._text), self._pos, None), None)  # stops there
        offset = match.start() if match else len(self._text)
        return error(offset, expected, repr(token) if token else "end of input")

    def _take(self, token: str, expected: str) -> None:
        if self._tokens[self._pos] != token:
            raise self._fail(expected)
        self._pos += 1

    def _ident(self, expected: str) -> str:
        token = self._tokens[self._pos]
        if not token[:1].islower() or token in _CONSTANTS:
            raise self._fail(expected)
        self._pos += 1
        return token

    def binary(self, level: int) -> Formula:
        """A unary operand, then every binary operator of level >= `level`."""
        left = self.unary()
        while True:
            infix = _INFIX.get(self._tokens[self._pos])
            if infix is None or infix[0] < level:
                return left
            self._pos += 1
            op_level, node, grouping = infix
            right_level = op_level if grouping == "right" else op_level + 1
            right = self.binary(right_level) if right_level < _UNARY else self.unary()
            left = self._node((node, id(left), id(right)), node, left, right)
            if grouping is None:
                return left

    def _node(self, key: tuple, node: type, *fields: object):
        """The table's entry for `key`, built from `fields` the first time."""
        made = self._nodes.get(key)
        if made is None:
            made = self._nodes[key] = node(*fields)
        return made

    def unary(self) -> Formula:
        token = self._tokens[self._pos]
        self._pos += 1
        node = self._nodes.get(token)
        if node is not None:
            return node
        if token in _PREFIX:
            child = self.unary()
            for node in _PREFIX[token]:  # innermost first
                child = self._node((node, id(child)), node, child)
            return child
        if token == "(":
            if self._depth == _MAX_NESTING:
                self._pos -= 1
                raise self._fail(f"at most {_MAX_NESTING} nested parentheses", _NestingError)
            self._depth += 1
            inner = self.binary(0)
            self._take(")", "')'")
            self._depth -= 1
            return inner
        if token == "B":
            self._take("{", "'{'")
            members: list[str] = []
            if self._tokens[self._pos] != "}":
                members.append(self._ident("'}'"))
                while self._tokens[self._pos] == ",":
                    self._pos += 1
                    members.append(self._ident("an agent id"))
            self._take("}", "'}'")
            coalition = self._node(tuple(members), Coalition, members)
            child = self.unary()
            return self._node((Blame, coalition.members, id(child)), Blame, coalition, child)
        if token[:1].islower():  # an identifier or keyword, built once per table
            node = self._nodes[token] = _CONSTANTS[token]() if token in _CONSTANTS else Prop(token)
            return node
        self._pos -= 1
        raise self._fail("a formula")


def parse(text: str) -> Formula:
    return _parse(text, {})


def _parse(text: str, nodes: dict) -> Formula:
    """``parse`` with the node table `nodes`, which may be shared with other calls."""
    tokens = _TOKEN.findall(text)
    parser = _Parser(text, tokens, nodes)
    if not all(map(_is_token, set(tokens))):  # report the first character that starts no token
        parser._pos = next(i for i, token in enumerate(tokens) if not _is_token(token))
        raise parser._fail(_LEX_EXPECTED.get(tokens[parser._pos], "a token"))
    tokens.append("")
    result = parser.binary(0)
    if tokens[parser._pos]:
        raise parser._fail("end of input")
    return result


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f."""
    return _fmt(f, 0)


def _fmt(f: Formula, required: int) -> str:
    """Text of f, parenthesized when it binds looser than level `required`."""
    # _key holds the fields; reading it skips a property call per field.
    kind = type(f)  # exact, as in the fold: a subclass's text would not parse back
    binary = _LEVELS.get(kind)
    if binary is not None:
        level, op, grouping = binary
        left = _fmt(f._key[0], level if grouping == "left" else level + 1)
        text = left + op + _fmt(f._key[1], level if grouping == "right" else level + 1)
        return f"({text})" if level < required else text
    if kind is Prop:
        return f._key[0]
    if kind in _KEYWORDS:
        return _KEYWORDS[kind]
    if kind not in _HEADS:
        raise TypeError(f"not a formula: {f!r}")
    head, k = _HEADS[kind], f._key  # the child is the last field
    if kind is Not and type(k[0]) is Necessity and type(k[0]._key[0]) is Not:
        head, k = "<N> ", k[0]._key[0]._key
    elif head is None:
        head = "B{" + ",".join(k[0].members) + "} "
    return head + _fmt(k[-1], _UNARY)
