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
level or tighter.  The lexical check runs only when a parse fails: a
character that starts no token is never consumed, so the first is found then
and reported in place of the grammar error.  Every node comes from one
table, so equal subformulas of a text are one object; ``_parse`` lets a
caller share that table across texts, and it keys each whole text parsed.
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
# Each prefix head wraps its operand in these node types ("<N>" is "!N !"); B reads a coalition.
_PREFIX = {"!": (Not,), "N": (Necessity,), "<N>": (Not, Necessity, Not), "B": ()}
_CONSTANTS = {"true": Top, "false": Bottom}
_KEYWORDS = {node: word for word, node in _CONSTANTS.items()}
_HEADS = {Not: "!", Necessity: "N ", Blame: None}  # a Blame node's head names its coalition

# A symbol, an identifier or keyword, a character that starts no token (a
# lone "-" or "<" gets a hint at what was meant), or "" at the end of the
# text, which ends the token list.  Nothing backtracks.
_TOKEN = re.compile(r"<->|->|<N>|[(){},!&|NB]|[a-z][A-Za-z0-9_]*|\S|\Z")
_SYMBOLS = frozenset(("<->", "->", "<N>", *"(){},!&|NB", ""))
_LEX_EXPECTED = {"-": "'->'", "<": "'<->' or '<N>'"}

# Parentheses nest at most this deep (two stack frames a level), or "formula nested too deeply".
_MAX_NESTING = 180


class _NestingError(ParseError):
    def __str__(self) -> str:
        return "formula nested too deeply"


class _Parser:
    def __init__(self, text: str, tokens: list[str], nodes: dict) -> None:
        # The table: atoms by name, coalitions by raw members, parsed texts by text, and
        # other nodes by (type, id(child), ...), valid since the table holds every child.
        self._text, self._tokens, self._nodes = text, tokens, nodes
        self._pos = self._depth = 0

    def _fail(self, expected: str, error: type[ParseError] = ParseError) -> ParseError:
        # The first character that starts no token, if any, wins over `expected`.
        tokens = self._tokens
        starts = (t in _SYMBOLS or "a" <= t[:1] <= "z" for t in tokens)
        bad = next((i for i, ok in enumerate(starts) if not ok), None)
        if bad is not None:
            self._pos, expected, error = bad, _LEX_EXPECTED.get(tokens[bad], "a token"), ParseError
        token = tokens[self._pos]
        offset = next(islice(_TOKEN.finditer(self._text), self._pos, None)).start()  # stops there
        return error(offset, expected, repr(token) if token else "end of input")

    def _take(self, token: str, expected: str) -> None:
        if self._tokens[self._pos] != token:
            raise self._fail(expected)
        self._pos += 1

    def _ident(self, expected: str) -> str:
        token = self._tokens[self._pos]
        if not "a" <= token[:1] <= "z" or token in _CONSTANTS:
            raise self._fail(expected)
        self._pos += 1
        return token

    def binary(self, level: int) -> Formula:
        """A unary operand, then every binary operator of level >= `level`."""
        nodes = self._nodes
        left = self.unary()
        while True:
            infix = _INFIX.get(self._tokens[self._pos])
            if infix is None or infix[0] < level:
                return left
            self._pos += 1
            op_level, node, grouping = infix
            right_level = op_level if grouping == "right" else op_level + 1
            right = self.binary(right_level) if right_level < _UNARY else self.unary()
            key = node, id(left), id(right)
            left = nodes.get(key) or nodes.setdefault(key, node(left, right))  # a node is truthy
            if grouping is None:
                return left

    def _coalition(self) -> Coalition:
        """The table's coalition for the "{" idlist? "}" after a B."""
        self._take("{", "'{'")
        members: list[str] = []
        if self._tokens[self._pos] != "}":
            members.append(self._ident("'}'"))
            while self._tokens[self._pos] == ",":
                self._pos += 1
                members.append(self._ident("an agent id"))
        self._take("}", "'}'")
        key = tuple(members)  # B{}'s coalition is falsy: setdefault keeps the first
        return self._nodes.get(key) or self._nodes.setdefault(key, Coalition(members))

    def unary(self) -> Formula:
        """A run of prefix heads, read in a loop (no run is too long), then their operand."""
        tokens, nodes = self._tokens, self._nodes
        token = tokens[self._pos]
        self._pos += 1
        node = nodes.get(token)
        if node is not None:  # an atom the table has seen
            return node
        heads = []
        while token in _PREFIX:  # a head: its node types, or B's coalition
            heads.append(_PREFIX[token] or self._coalition())
            token = tokens[self._pos]
            self._pos += 1
        node = nodes.get(token)
        if node is None and "a" <= token[:1] <= "z":  # an identifier or keyword, once a table
            node = nodes[token] = _CONSTANTS[token]() if token in _CONSTANTS else Prop(token)
        elif token == "(":
            if self._depth == _MAX_NESTING:
                self._pos -= 1
                raise self._fail(f"at most {_MAX_NESTING} nested parentheses", _NestingError)
            self._depth += 1
            node = self.binary(0)
            self._take(")", "')'")
            self._depth -= 1
        elif node is None:
            self._pos -= 1
            raise self._fail("a formula")
        for head in reversed(heads):  # innermost first
            if head.__class__ is Coalition:
                key = Blame, head.members, id(node)
                node = nodes.get(key) or nodes.setdefault(key, Blame(head, node))
            else:
                for kind in head:
                    key = kind, id(node)
                    node = nodes.get(key) or nodes.setdefault(key, kind(node))
        return node


def parse(text: str) -> Formula:
    return _parse(text, {})


def _parse(text: str, nodes: dict) -> Formula:
    """``parse`` with a node table shared with other calls: a repeated text is one node."""
    if nodes and (made := nodes.get(text)) is not None:  # if fresh, findall rejects a non-str
        return made
    tokens = _TOKEN.findall(text)
    parser = _Parser(text, tokens, nodes)
    try:
        result = parser.binary(0)
    except RecursionError as e:  # a character that starts no token still comes first
        error = parser._fail("")  # its `expected` is "" unless it reports one
        raise error if error.expected else e
    if tokens[parser._pos]:
        raise parser._fail("end of input")
    nodes[text] = result
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
