"""Bounded-exhaustive corpora: every formula up to a node count, every game of one scope.

The formulas are built by node count over the leaves p, q, true and false,
the unary nodes !, N, B{}, B{a} and B{a,b}, and the four connectives, each
size from the smaller ones, so subtrees are shared: 4, 20, 164, 1,460,
14,148 and 143,700 formulas of 1 to 6 nodes.  The games are the 256 of
scope (agent a, actions x and y, props p and q) with one play per cell: a
cell is an action with the set of props true at it, and each set of the 8
cells is one game.

The test modules check slices of these.  Run as a script, this module checks
the full bounds and exits 1 on any difference:

    PYTHONPATH=src python3 tests/smallscope.py

that is, both printer properties over every formula of at most 6 nodes, the
lexical errors over every formula of at most 5 nodes, and one evaluator per game
against ``oracle`` (the recursion of ``satisfies``) over every formula of at most
4 nodes on all 256 games.
"""

from __future__ import annotations

import sys
import time
from itertools import product

from blamelogic import (
    And,
    Blame,
    Bottom,
    Coalition,
    Game,
    Iff,
    Implies,
    Necessity,
    Not,
    Or,
    ParseError,
    Play,
    Prop,
    Top,
    format_formula,
    parse,
)
from blamelogic.checker import StrategySpaceError, _Evaluator, _sat
from blamelogic.parser import _LEX_EXPECTED, _TOKEN

LEAVES = (Prop("p"), Prop("q"), Top(), Bottom())
UNARY = (
    Not,
    Necessity,
    *(lambda f, c=Coalition(m): Blame(c, f) for m in ((), ("a",), ("a", "b"))),
)
BINARY = (Implies, And, Or, Iff)


def formulas(max_nodes: int) -> list[list]:
    """``by_size[n]``: every formula of exactly n nodes, for n from 1 to max_nodes."""
    by_size = [[], list(LEAVES)]
    for n in range(2, max_nodes + 1):
        level = [make(child) for make in UNARY for child in by_size[n - 1]]
        for make in BINARY:
            for k in range(1, n - 1):
                level += [make(a, b) for a in by_size[k] for b in by_size[n - 1 - k]]
        by_size.append(level)
    return by_size


def upto(max_nodes: int) -> list:
    """Every formula of at most max_nodes nodes, smallest first."""
    return [f for level in formulas(max_nodes) for f in level]


CELLS = tuple(product(("x", "y"), (False, True), (False, True)))  # action, p, q


def games() -> list[Game]:
    """The 256 games of the scope; game k has the cells at the set bits of k, in cell order."""
    out = []
    for k in range(1 << len(CELLS)):
        cells = [c for j, c in enumerate(CELLS) if k >> j & 1]
        plays = tuple(Play({"a": x}, f"o{j}") for j, (x, _, _) in enumerate(cells))
        valuation = {
            "p": frozenset(j for j, c in enumerate(cells) if c[1]),
            "q": frozenset(j for j, c in enumerate(cells) if c[2]),
        }
        outcomes = tuple(f"o{j}" for j in range(len(CELLS)))
        out.append(Game(("a",), ("x", "y"), outcomes, plays, valuation))
    return out


def _closing(text: str) -> dict[int, int]:
    """The index of each "(" in text mapped to that of its matching ")"."""
    opened, pairs = [], {}
    for j, ch in enumerate(text):
        if ch == "(":
            opened.append(j)
        elif ch == ")":
            pairs[opened.pop()] = j
    return pairs


def printer_faults(fs) -> list[tuple[str, str]]:
    """(property, text) for each formula whose printed text fails a printer property:
    it parses back to the formula and prints the same; removing any one pair of its
    parentheses changes the tree or fails to parse; and it never spells ``<N>`` as ``!N !``."""
    faults = []
    for f in fs:
        text = format_formula(f)
        back = parse(text)
        if back != f or format_formula(back) != text:
            faults.append(("round trip", text))
        if "!N !" in text:
            faults.append(("<N> spelled out", text))
        for i, j in _closing(text).items():
            try:
                other = parse(text[:i] + text[i + 1 : j] + text[j + 1 :])
            except ParseError:
                continue
            if other == f:
                faults.append(("redundant parentheses", text))
    return faults


# Characters that start no token: one that starts no symbol, one outside
# ASCII, and the two that start a longer symbol.
NO_TOKEN = ("$", "\u00e9", "-", "<")


def lexical_faults(fs) -> list[tuple[str, object]]:
    """(text, outcome) for each text that does not fail as the lexical rule says: the
    printed text of a formula with " c " inserted at one token start, for each c in
    NO_TOKEN, must fail at c with ``_LEX_EXPECTED``'s expectation (else "a token"),
    whatever grammar error the rest of the text holds."""
    faults = []
    for f in fs:
        text = format_formula(f)
        for start in [m.start() for m in _TOKEN.finditer(text) if m.group()]:
            for c in NO_TOKEN:
                bad = f"{text[:start]} {c} {text[start:]}"
                try:
                    got: object = format_formula(parse(bad))
                except ParseError as e:
                    got = (e.position, e.expected, e.found)
                if got != (start + 1, _LEX_EXPECTED.get(c, "a token"), repr(c)):
                    faults.append((bad, got))
    return faults


_ATOMS = (Prop, Necessity, Blame)


def truth_table(f) -> bool:
    """Whether f is true in every row of its truth table: its Prop, N and B
    subformulas that lie below no N or B node are the atoms, equal ones one atom."""
    atoms: dict = {}

    def collect(node) -> None:
        if isinstance(node, _ATOMS):
            atoms.setdefault(node, len(atoms))
        else:
            for child in node._key:
                collect(child)

    def value(node, row) -> bool:
        if isinstance(node, _ATOMS):
            return row[atoms[node]]
        if isinstance(node, (Top, Bottom)):
            return isinstance(node, Top)
        if isinstance(node, Not):
            return not value(node.child, row)
        a, b = value(node.left, row), value(node.right, row)
        if isinstance(node, Implies):
            return not a or b
        if isinstance(node, And):
            return a and b
        return a or b if isinstance(node, Or) else a == b

    collect(f)
    return all(value(f, row) for row in product((False, True), repeat=len(atoms)))


def outcome(route, *args):
    """What the route returns, or the class and message of the ValueError it raises."""
    try:
        return route(*args)
    except StrategySpaceError as e:
        return "cap", str(e), e.coalition, e.size, e.cap
    except ValueError as e:
        return "agents", str(e)


def oracle(g, f) -> int:
    """The truth vector by the definition: the fold once, for the guard's errors
    (a game without plays raises them too), then ``checker._sat`` at each play."""
    _Evaluator(g).mask(f)
    return sum(_sat(g, i, f) << i for i in range(len(g.plays)))


def evaluator_faults(gs, fs) -> list[tuple[int, str, object, object]]:
    """(game, text, evaluator's, oracle's) where one evaluator per game, answering
    every formula in turn, differs from the oracle."""
    faults = []
    for k, g in enumerate(gs):
        evaluator = _Evaluator(g)
        for f in fs:
            got, expected = outcome(evaluator.mask, f), outcome(oracle, g, f)
            if got != expected:
                faults.append((k, format_formula(f), got, expected))
    return faults


def main() -> int:
    t0, fs = time.perf_counter(), upto(6)
    faults = printer_faults(fs)
    print(f"printer, {len(fs):,} formulas of at most 6 nodes: {len(faults)} faults"
          f" ({time.perf_counter() - t0:.1f} s)")  # fmt: skip
    t0, fs = time.perf_counter(), upto(5)
    lexical = lexical_faults(fs)
    print(f"lexical errors, {len(fs):,} formulas of at most 5 nodes: {len(lexical)} faults"
          f" ({time.perf_counter() - t0:.1f} s)")  # fmt: skip
    faults += lexical
    t0, gs, fs = time.perf_counter(), games(), upto(4)
    differ = evaluator_faults(gs, fs)
    print(f"evaluator against satisfies, {len(fs):,} formulas of at most 4 nodes on {len(gs)}"
          f" games: {len(differ)} differences ({time.perf_counter() - t0:.1f} s)")  # fmt: skip
    for fault in (faults + differ)[:20]:
        print(*fault, sep="\t")
    return 1 if faults or differ else 0


if __name__ == "__main__":
    sys.exit(main())
