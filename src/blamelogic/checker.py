"""Play-level evaluation and blame analysis.

Two routes compute truth values.  ``satisfies`` is the literal recursive
definition: N re-scans every play, and B enumerates the coalition's
strategies one by one.  ``evaluate_all`` computes whole truth vectors as
bitmasks through ``truth_mask``, memoised per node of the formula tree;
for a B node it never enumerates strategies, since a strategy fails to
prevent the child formula exactly when some child-satisfying play pins
it down.  The two routes must agree bit for bit, so ``satisfies`` stays
deliberately naive as an oracle.

Both routes pre-check every B node in the formula, in one walk, for
agents the game lacks and then against the strategy enumeration cap, so
they raise identical errors as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

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
    blame_nodes,
    truth_mask,
)
from .game import Game, Strategy

__all__ = [
    "DEFAULT_STRATEGY_CAP",
    "StrategySpaceError",
    "EvalTable",
    "BlameEntry",
    "BlameReport",
    "satisfies",
    "evaluate_all",
    "blame_witness",
    "blamable_coalitions",
    "valid_in_game",
]

DEFAULT_STRATEGY_CAP = 1 << 20


class StrategySpaceError(Exception):
    """|actions|^|coalition| exceeds the enumeration cap for some B node."""

    def __init__(self, coalition: Coalition, size: int, cap: int) -> None:
        super().__init__(
            f"strategy space for coalition {coalition} has {size} elements, over the cap {cap}"
        )
        self.coalition = coalition
        self.size = size
        self.cap = cap


@dataclass(frozen=True)
class EvalTable:
    formula: Formula
    truth: tuple[bool, ...]


@dataclass(frozen=True)
class BlameEntry:
    coalition: Coalition
    witness: Strategy
    minimal: bool


@dataclass(frozen=True)
class BlameReport:
    play_index: int
    formula: Formula
    max_size: int
    entries: tuple[BlameEntry, ...]

    def as_dict(self) -> dict:
        from .parser import format_formula

        return {
            "play": self.play_index,
            "formula": format_formula(self.formula),
            "max_size": self.max_size,
            "blamable": [
                {
                    "coalition": list(e.coalition.members),
                    "witness": {a: e.witness.choice[a] for a in e.witness.coalition},
                    "minimal": e.minimal,
                }
                for e in self.entries
            ],
        }


def _space(g: Game, coalition: Coalition) -> int:
    return len(g.actions) ** len(coalition)


def _precheck(g: Game, f: Formula, cap: int, extra: Coalition | None = None) -> None:
    # Check every B node up front so both evaluation routes fail alike,
    # regardless of short-circuiting.  An unknown agent anywhere is
    # reported before any strategy space over the cap.
    coalitions = [node.coalition for node in blame_nodes(f)]
    if extra is not None:
        coalitions.insert(0, extra)
    unknown = {a for c in coalitions for a in c} - set(g.agents)
    if unknown:
        raise ValueError(f"agents not in the game: {sorted(unknown)}")
    for c in coalitions:
        if len(c) and _space(g, c) > cap:
            raise StrategySpaceError(c, _space(g, c), cap)


def _check_play_index(g: Game, play_index: int) -> None:
    if type(play_index) is not int or not 0 <= play_index < len(g.plays):
        raise IndexError(f"play index {play_index} out of range for {len(g.plays)} plays")


def satisfies(g: Game, play_index: int, f: Formula, *, cap: int = DEFAULT_STRATEGY_CAP) -> bool:
    """Truth at one play, by direct recursion over the definition."""
    _check_play_index(g, play_index)
    _precheck(g, f, cap)
    return _sat(g, play_index, f)


def _sat(g: Game, i: int, f: Formula) -> bool:
    if isinstance(f, Prop):
        return i in g.valuation.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Not):
        return not _sat(g, i, f.child)
    if isinstance(f, Implies):
        return not _sat(g, i, f.left) or _sat(g, i, f.right)
    if isinstance(f, And):
        return _sat(g, i, f.left) and _sat(g, i, f.right)
    if isinstance(f, Or):
        return _sat(g, i, f.left) or _sat(g, i, f.right)
    if isinstance(f, Iff):
        return _sat(g, i, f.left) == _sat(g, i, f.right)
    if isinstance(f, Necessity):
        return all(_sat(g, j, f.child) for j in range(len(g.plays)))
    if isinstance(f, Blame):
        if not _sat(g, i, f.child):
            return False
        members = tuple(a for a in g.agents if a in f.coalition)
        for combo in product(g.actions, repeat=len(members)):
            if not any(
                all(g.plays[j].profile[a] == x for a, x in zip(members, combo))
                and _sat(g, j, f.child)
                for j in range(len(g.plays))
            ):
                return True
        return False
    raise TypeError(f"not a formula: {f!r}")


def evaluate_all(g: Game, f: Formula, *, cap: int = DEFAULT_STRATEGY_CAP) -> EvalTable:
    """Truth vector over all plays, memoised per node of the formula tree."""
    _precheck(g, f, cap)
    mask = _mask(g, f)
    return EvalTable(f, tuple(bool(mask >> i & 1) for i in range(len(g.plays))))


def _mask(g: Game, f: Formula) -> int:
    full = (1 << len(g.plays)) - 1
    memo: dict[int, int] = {}

    def atom(node: Formula) -> int:
        if isinstance(node, Prop):
            m = 0
            for i in g.valuation.get(node.name, frozenset()):
                m |= 1 << i
            return m
        child = truth_mask(node.child, full, atom, memo)
        if isinstance(node, Necessity):
            return full if child == full else 0
        # The prevention condition does not depend on the play, so the
        # B node's vector is the child's vector or all-false.
        return child if _has_preventer(g, node.coalition, child) else 0

    return truth_mask(f, full, atom, memo)


def _blocked_codes(g: Game, members: tuple[str, ...], child_mask: int) -> set[int]:
    """Strategy codes pinned down by some child-satisfying play.

    A code is the coalition's action choice read as a base-|actions|
    numeral, most significant digit first in game agent order, so numeric
    order is lexicographic order.
    """
    base = len(g.actions)
    index = {x: k for k, x in enumerate(g.actions)}
    blocked: set[int] = set()
    for j, play in enumerate(g.plays):
        if child_mask >> j & 1:
            code = 0
            for a in members:
                code = code * base + index[play.profile[a]]
            blocked.add(code)
    return blocked


def _has_preventer(g: Game, coalition: Coalition, child_mask: int) -> bool:
    members = tuple(a for a in g.agents if a in coalition)
    return len(_blocked_codes(g, members, child_mask)) < _space(g, coalition)


def _witness(g: Game, coalition: Coalition, child_mask: int) -> Strategy | None:
    """Lexicographically first preventing strategy, or None."""
    members = tuple(a for a in g.agents if a in coalition)
    blocked = _blocked_codes(g, members, child_mask)
    if len(blocked) >= _space(g, coalition):
        return None
    code = next(c for c in range(len(blocked) + 1) if c not in blocked)
    base = len(g.actions)
    digits: list[int] = []
    for _ in members:
        digits.append(code % base)
        code //= base
    digits.reverse()
    return Strategy(coalition, {a: g.actions[d] for a, d in zip(members, digits)})


def blame_witness(
    g: Game,
    play_index: int,
    coalition: Coalition,
    f: Formula,
    *,
    cap: int = DEFAULT_STRATEGY_CAP,
) -> Strategy | None:
    """A preventing strategy for the coalition, when it is blamable here."""
    _check_play_index(g, play_index)
    _precheck(g, f, cap, extra=coalition)
    child = _mask(g, f)
    if not child >> play_index & 1:
        return None
    return _witness(g, coalition, child)


def blamable_coalitions(
    g: Game,
    play_index: int,
    f: Formula,
    max_size: int | None = None,
    *,
    cap: int = DEFAULT_STRATEGY_CAP,
) -> BlameReport:
    """Every coalition of size <= max_size blamable at the play, with witnesses.

    Entries are ordered by size then members; inclusion-minimal ones are
    flagged.  The formula failing at the play gives an empty report.
    """
    if max_size is None:
        max_size = len(g.agents)
    if not 0 <= max_size <= len(g.agents):
        raise ValueError(f"max_size {max_size} out of range for {len(g.agents)} agents")
    _check_play_index(g, play_index)
    _precheck(g, f, cap)
    for size in range(1, max_size + 1):
        space = len(g.actions) ** size
        if space > cap:
            raise StrategySpaceError(Coalition(sorted(g.agents)[:size]), space, cap)

    child = _mask(g, f)
    found: list[tuple[Coalition, Strategy]] = []
    if child >> play_index & 1:
        for size in range(1, max_size + 1):
            for members in combinations(sorted(g.agents), size):
                coalition = Coalition(members)
                witness = _witness(g, coalition, child)
                if witness is not None:
                    found.append((coalition, witness))
    member_sets = [set(c.members) for c, _ in found]
    entries = tuple(
        BlameEntry(c, w, minimal=not any(o < s for o in member_sets))
        for (c, w), s in zip(found, member_sets)
    )
    return BlameReport(play_index, f, max_size, entries)


def valid_in_game(g: Game, f: Formula, *, cap: int = DEFAULT_STRATEGY_CAP) -> int | None:
    """None when the formula holds at every play, else the least failing index."""
    table = evaluate_all(g, f, cap=cap)
    for i, value in enumerate(table.truth):
        if not value:
            return i
    return None
