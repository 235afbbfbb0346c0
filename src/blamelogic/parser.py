"""Concrete syntax: parse text to a Formula and print a Formula back.

Grammar, loosest binding first:

    formula := iff
    iff     := impl ("<->" impl)?           non-associative
    impl    := disj ("->" impl)?            right-associative
    disj    := conj ("|" conj)*             left-associative
    conj    := unary ("&" unary)*           left-associative
    unary   := "!" unary | "N" unary | "<N>" unary
             | "B" "{" idlist? "}" unary | atom
    atom    := "true" | "false" | ident | "(" formula ")"
    idlist  := ident ("," ident)*

Identifiers start with a lowercase letter, so N and B never collide
with them.  "<N> f" is input sugar for "!N !f"; the printer restores
it whenever a subtree has exactly that shape.  Whitespace between
tokens is insignificant.  Input is ASCII, so reported positions are
byte offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


_SINGLE = {
    "(": "LPAREN",
    ")": "RPAREN",
    "{": "LBRACE",
    "}": "RBRACE",
    ",": "COMMA",
    "!": "BANG",
    "&": "AMP",
    "|": "PIPE",
}


def _lex(text: str) -> list[_Token]:
    out: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE:
            out.append(_Token(_SINGLE[ch], ch, i))
            i += 1
            continue
        if ch == "-":
            if text.startswith("->", i):
                out.append(_Token("ARROW", "->", i))
                i += 2
                continue
            raise ParseError(i, "'->'", repr(ch))
        if ch == "<":
            if text.startswith("<->", i):
                out.append(_Token("IFF", "<->", i))
                i += 3
                continue
            if text.startswith("<N>", i):
                out.append(_Token("POSS", "<N>", i))
                i += 3
                continue
            raise ParseError(i, "'<->' or '<N>'", repr(ch))
        if ch == "N":
            out.append(_Token("NEC", "N", i))
            i += 1
            continue
        if ch == "B":
            out.append(_Token("BLAME", "B", i))
            i += 1
            continue
        if "a" <= ch <= "z":
            j = i + 1
            while j < n and (text[j].isascii() and (text[j].isalnum() or text[j] == "_")):
                j += 1
            word = text[i:j]
            if word == "true":
                out.append(_Token("TRUE", word, i))
            elif word == "false":
                out.append(_Token("FALSE", word, i))
            else:
                out.append(_Token("IDENT", word, i))
            i = j
            continue
        raise ParseError(i, "a token", repr(ch))
    out.append(_Token("EOF", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _fail(self, expected: str) -> ParseError:
        tok = self._peek()
        found = "end of input" if tok.kind == "EOF" else repr(tok.text)
        return ParseError(tok.pos, expected, found)

    def _expect(self, kind: str, expected: str) -> _Token:
        if self._peek().kind != kind:
            raise self._fail(expected)
        return self._next()

    def formula(self) -> Formula:
        left = self.impl()
        if self._peek().kind == "IFF":
            self._next()
            left = Iff(left, self.impl())
        return left

    def impl(self) -> Formula:
        left = self.disj()
        if self._peek().kind == "ARROW":
            self._next()
            return Implies(left, self.impl())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self._peek().kind == "PIPE":
            self._next()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.unary()
        while self._peek().kind == "AMP":
            self._next()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        kind = self._peek().kind
        if kind == "BANG":
            self._next()
            return Not(self.unary())
        if kind == "NEC":
            self._next()
            return Necessity(self.unary())
        if kind == "POSS":
            self._next()
            return possibly(self.unary())
        if kind == "BLAME":
            self._next()
            self._expect("LBRACE", "'{'")
            members: list[str] = []
            if self._peek().kind == "IDENT":
                members.append(self._next().text)
                while self._peek().kind == "COMMA":
                    self._next()
                    members.append(self._expect("IDENT", "an agent id").text)
            self._expect("RBRACE", "'}'")
            return Blame(Coalition(members), self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind = self._peek().kind
        if kind == "TRUE":
            self._next()
            return Top()
        if kind == "FALSE":
            self._next()
            return Bottom()
        if kind == "IDENT":
            return Prop(self._next().text)
        if kind == "LPAREN":
            self._next()
            inner = self.formula()
            self._expect("RPAREN", "')'")
            return inner
        raise self._fail("a formula")


def parse(text: str) -> Formula:
    parser = _Parser(_lex(text))
    result = parser.formula()
    if parser._peek().kind != "EOF":
        raise parser._fail("end of input")
    return result


# Binding levels, loosest to tightest.  A node is parenthesized when its
# own level is below what its context requires.
_IFF, _IMPL, _DISJ, _CONJ, _UNARY, _ATOM = 1, 2, 3, 4, 5, 6


def format_formula(f: Formula) -> str:
    """Canonical text with minimal parentheses; parse(format_formula(f)) == f."""
    return _fmt(f, _IFF)


def _wrap(text: str, level: int, required: int) -> str:
    return f"({text})" if level < required else text


def _fmt(f: Formula, required: int) -> str:
    if isinstance(f, Not) and isinstance(f.child, Necessity) and isinstance(f.child.child, Not):
        return _wrap("<N> " + _fmt(f.child.child.child, _UNARY), _UNARY, required)
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Not):
        return _wrap("!" + _fmt(f.child, _UNARY), _UNARY, required)
    if isinstance(f, Necessity):
        return _wrap("N " + _fmt(f.child, _UNARY), _UNARY, required)
    if isinstance(f, Blame):
        head = "B{" + ",".join(f.coalition.members) + "} "
        return _wrap(head + _fmt(f.child, _UNARY), _UNARY, required)
    if isinstance(f, And):
        text = _fmt(f.left, _CONJ) + " & " + _fmt(f.right, _UNARY)
        return _wrap(text, _CONJ, required)
    if isinstance(f, Or):
        text = _fmt(f.left, _DISJ) + " | " + _fmt(f.right, _CONJ)
        return _wrap(text, _DISJ, required)
    if isinstance(f, Implies):
        text = _fmt(f.left, _DISJ) + " -> " + _fmt(f.right, _IMPL)
        return _wrap(text, _IMPL, required)
    if isinstance(f, Iff):
        text = _fmt(f.left, _IMPL) + " <-> " + _fmt(f.right, _IMPL)
        return _wrap(text, _IFF, required)
    raise TypeError(f"not a formula: {f!r}")
