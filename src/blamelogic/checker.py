"""Play-level evaluation and blame analysis.

Two routes compute truth values.  ``satisfies`` is the literal recursive
definition: N re-scans every play, and B enumerates the coalition's
strategies one by one.  ``evaluate_all`` computes whole truth vectors as
bitmasks through ``truth_mask``, memoised per node of the formula tree;
for a B node it groups the child's plays by the strategy they follow and
looks for a strategy with none.  The two routes must agree bit for bit,
so ``satisfies`` stays deliberately naive as an oracle.

Both routes check every B node in the formula for agents the game lacks
and then against the fixed ``STRATEGY_CAP``, so they raise identical
errors as well.  ``_precheck``'s walk states those errors once; the fold
checks each B node as it reaches it and walks only when one fails.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

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
    _Record,
    blame_nodes,
    truth_mask,
)
from .game import Game, Strategy
from .parser import format_formula

__all__ = [
    "STRATEGY_CAP",
    "StrategySpaceError",
    "CoalitionCountError",
    "EvalTable",
    "BlameEntry",
    "BlameReport",
    "satisfies",
    "evaluate_all",
    "blame_witness",
    "blamable_coalitions",
    "valid_in_game",
]

STRATEGY_CAP = 1 << 20


class StrategySpaceError(ValueError):
    """|actions|^|coalition| exceeds STRATEGY_CAP for some B node; ``cap`` records it."""

    def __init__(self, coalition: Coalition, size: int) -> None:
        self.coalition, self.size, self.cap = coalition, size, STRATEGY_CAP
        super().__init__(
            f"strategy space for coalition {coalition} has {size} elements, over the cap {self.cap}"
        )

    def __reduce__(self):
        return type(self), (self.coalition, self.size)


class CoalitionCountError(ValueError):
    """A blame search would try more coalitions than the enumeration cap."""


class EvalTable(_Record):
    """A formula's truth value at each play, in play order."""

    __slots__ = ("formula", "truth")


class BlameEntry(_Record):
    """A blamable coalition, its first preventing Strategy, and whether it is minimal."""

    __slots__ = ("coalition", "witness", "minimal")


class BlameReport(_Record):
    __slots__ = ("play_index", "formula", "max_size", "entries")

    def as_dict(self) -> dict:
        return {
            "play": self.play_index,
            "formula": format_formula(self.formula),
            "max_size": self.max_size,
            "blamable": [
                {
                    "coalition": list(e.coalition.members),
                    "witness": dict(e.witness.choice),
                    "minimal": e.minimal,
                }
                for e in self.entries
            ],
        }


def _precheck(g: Game, f: Formula, extra: Coalition | None = None) -> None:
    # Check every B node, so both evaluation routes fail alike regardless
    # of short-circuiting: an unknown agent anywhere before any strategy
    # space over the cap, in walk order.
    coalitions = [node.coalition for node in blame_nodes(f)]
    if extra is not None:
        coalitions.insert(0, extra)
    unknown = {a for c in coalitions for a in c} - set(g.agents)
    if unknown:
        raise ValueError(f"agents not in the game: {sorted(unknown)}")
    for c in coalitions:
        if len(c) and (space := len(g.actions) ** len(c)) > STRATEGY_CAP:
            raise StrategySpaceError(c, space)


def _check_play_index(g: Game, play_index: int) -> None:
    if type(play_index) is not int or not 0 <= play_index < len(g.plays):
        raise IndexError(f"play index {play_index} out of range for {len(g.plays)} plays")


def satisfies(g: Game, play_index: int, f: Formula) -> bool:
    """Truth at one play, by direct recursion over the definition."""
    _check_play_index(g, play_index)
    _precheck(g, f)
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


def evaluate_all(g: Game, f: Formula) -> EvalTable:
    """Truth vector over all plays, memoised per node of the formula tree."""
    mask = _Evaluator(g).mask(f)
    return EvalTable(f, tuple(bool(mask >> i & 1) for i in range(len(g.plays))))


class _Evaluator:
    """Truth vectors on one game, formula after formula, through one memo.

    It keeps what depends on the game alone, once needed: proposition vectors,
    coalition positions and the action masks.  Its id-keyed memo of node vectors
    lasts as long as it does, so a node shared between formulas folds once; it
    keeps every formula ``mask`` is given, those that raise too, so no memoised
    id is reused.  Build one per call, or per game of a sweep: a Game is valid
    once built, and a changed valuation or profile needs a new one."""

    def __init__(self, g: Game) -> None:
        self.game, self.full = g, (1 << len(g.plays)) - 1
        self.props, self.orders, self._masks = {}, {}, None
        self.memo: dict[int, int] = {}
        self.kept: list[Formula] = []

    def masks(self) -> list[list[int]]:
        if self._masks is None:
            self._masks = _action_masks(self.game)
        return self._masks

    def first(self, f: Formula, value: bool) -> int | None:
        """The least play where f has this truth value, or None."""
        plays = self.mask(f) ^ (0 if value else self.full)
        return (plays & -plays).bit_length() - 1 if plays else None

    def mask(self, f: Formula) -> int:
        g, cap, full, props, orders = self.game, STRATEGY_CAP, self.full, self.props, self.orders
        memo = self.memo
        self.kept.append(f)  # before the fold, which may memoise part of f and then raise

        def atom(node: Formula) -> int:
            if isinstance(node, Prop):
                if (m := props.get(node.name)) is None:
                    m = props[node.name] = sum(1 << i for i in g.valuation.get(node.name, ()))
                return m
            if isinstance(node, Necessity):
                return full if truth_mask(node.child, full, atom, memo) == full else 0
            c = node.coalition
            if (order := orders.get(c.members)) is None:
                order = orders[c.members] = _positions(g, c)
            # A B node over the cap or naming an unknown agent sends f to the walk for its error.
            space = len(g.actions) ** len(order)
            if space > cap or len(order) < len(c):
                _precheck(g, f)
            # The prevention condition does not depend on the play, so the
            # B node's vector is the child's vector or all-false.  Each play
            # agrees with exactly one of the coalition's strategies, so fewer
            # child plays than strategies leave one unblocked without a search.
            child = truth_mask(node.child, full, atom, memo)
            if child.bit_count() < space:
                return child
            return child if _first_preventer(self.masks(), order, child) is not None else 0

        return truth_mask(f, full, atom, memo)


def _action_masks(g: Game) -> list[list[int]]:
    """Per agent position and action index, the plays where that agent takes that action."""
    index = {x: k for k, x in enumerate(g.actions)}
    masks = [[0] * len(g.actions) for _ in g.agents]
    for j, play in enumerate(g.plays):
        bit = 1 << j
        for row, a in zip(masks, g.agents):
            row[index[play.profile[a]]] |= bit
    return masks


def _positions(g: Game, coalition: Coalition) -> tuple[int, ...]:
    return tuple(k for k, a in enumerate(g.agents) if a in coalition)


def _refine(groups: dict[int, int], row: list[int]) -> dict[int, int]:
    """Split strategy groups, each a code (first member in game agent order most
    significant) and the nonzero mask of the child plays that follow it, by one more member."""
    m = len(row)
    return {
        code * m + x: sub
        for code, plays in groups.items()
        for x, mask in enumerate(row)
        if (sub := plays & mask)
    }


def _first_missing(groups: dict[int, int], row: list[int], space: int) -> int | None:
    """The least of ``space`` codes with no group once ``row`` refines ``groups``, or None:
    the first strategy that no child play follows.  The scan stops at the first gap."""
    m, expected = len(row), 0
    for code, plays in groups.items():
        code *= m
        if code != expected:
            return expected
        for x, mask in enumerate(row):
            if not plays & mask:
                return code + x
        expected = code + m
    return expected if expected < space else None


def _first_preventer(masks: list[list[int]], order: tuple[int, ...], child: int) -> int | None:
    """The code of the first strategy of the members at ``order`` that prevents a nonzero child."""
    groups = {0: child}
    for k in order[:-1]:
        groups = _refine(groups, masks[k])
    return _first_missing(groups, masks[order[-1]], len(masks[0]) ** len(order)) if order else None


def _choice(g: Game, bits: int, code: int) -> dict[str, str]:
    """The strategy with this code for the agents at the set bits, keyed in id order."""
    picks = []
    while bits:  # the last agent in game order is the least significant digit
        k = bits.bit_length() - 1
        code, x = divmod(code, len(g.actions))
        picks.append((g.agents[k], g.actions[x]))
        bits ^= 1 << k
    return dict(sorted(picks))


def blame_witness(g: Game, play_index: int, coalition: Coalition, f: Formula) -> Strategy | None:
    """A preventing strategy for the coalition, when it is blamable here.

    The strategy is the lexicographically first one, with members in game
    agent order and actions in listed order; its choice is in member order.
    """
    _check_play_index(g, play_index)
    _precheck(g, f, extra=coalition)
    evaluator = _Evaluator(g)
    child = evaluator.mask(f)
    if not child >> play_index & 1:
        return None
    order = _positions(g, coalition)
    code = _first_preventer(evaluator.masks(), order, child)
    bits = sum(1 << k for k in order)
    return None if code is None else Strategy(coalition, _choice(g, bits, code))


def blamable_coalitions(
    g: Game, play_index: int, f: Formula, max_size: int | None = None
) -> BlameReport:
    """Every coalition of size <= max_size blamable at the play, with witnesses.

    Entries are ordered by size then members; inclusion-minimal ones are
    flagged.  The formula failing at the play gives an empty report.

    Blamability is upward closed: a strategy that prevents the formula
    extends to one for any superset.  So nothing is blamable when the
    grand coalition is not, and a blamable coalition is minimal exactly
    when no coalition one member smaller is blamable.

    ``STRATEGY_CAP`` bounds each coalition's strategy space and, before the
    search enumerates, the number of coalitions it would try.
    """
    if max_size is None:
        max_size = len(g.agents)
    if type(max_size) is not int or not 0 <= max_size <= len(g.agents):
        raise ValueError(f"max_size {max_size} out of range for {len(g.agents)} agents")
    _check_play_index(g, play_index)
    evaluator = _Evaluator(g)
    child = evaluator.mask(f)  # guards f's B nodes as _precheck would
    for size in range(1, max_size + 1):
        if (space := len(g.actions) ** size) > STRATEGY_CAP:
            raise StrategySpaceError(Coalition(sorted(g.agents)[:size]), space)
    if not (max_size and child >> play_index & 1):
        return BlameReport(play_index, f, max_size, ())
    agents = sorted((a, k) for k, a in enumerate(g.agents))
    ids = [a for a, _ in agents]
    n, m, masks = len(g.agents), len(g.actions), evaluator.masks()
    if _first_preventer(masks, tuple(range(n)), child) is None:
        return BlameReport(play_index, f, max_size, ())
    if (count := sum(comb(n, size) for size in range(1, max_size + 1))) > STRATEGY_CAP:
        raise CoalitionCountError(
            f"{count} coalitions of up to {max_size} agents, over the cap {STRATEGY_CAP}"
        )

    # One walk: each coalition is its parent plus an agent later in game
    # order, and its groups refine the parent's.  Where code 0 prevents, it
    # prevents for every extension, so a coalition not recorded has code 0.
    # The recursion is at most max_size deep, and 2**max_size - 1 <= count <= cap.
    codes: dict[int, int | None] = {}  # coalition bits (1 << game position) -> code or None

    def walk(bits: int, groups: dict[int, int], start: int, space: int, depth: int) -> None:
        space *= m
        for k in range(start, n):
            code = _first_missing(groups, masks[k], space)
            if code != 0:
                codes[bits | 1 << k] = code
                if depth < max_size and k + 1 < n:
                    walk(bits | 1 << k, _refine(groups, masks[k]), k + 1, space, depth + 1)

    walk(0, {0: child}, 0, 1, 1)
    # Entries in report order: by size, then member ids.
    weights = [1 << k for _, k in agents]
    singles = sum(w for w in weights if codes.get(w, 0) is not None)
    first, entries = g.actions[0], []
    for size in range(1, max_size + 1):
        for members, picked in zip(combinations(ids, size), combinations(weights, size)):
            bits = sum(picked)
            if (code := codes.get(bits, 0)) is None:
                continue
            coalition = Coalition._canonical(members)
            choice = _choice(g, bits, code) if code else dict.fromkeys(members, first)
            minimal = size == 1 or not bits & singles and all(
                codes.get(bits ^ w, 0) is None for w in picked
            )
            entries.append(BlameEntry(coalition, Strategy._canonical(coalition, choice), minimal))
    return BlameReport(play_index, f, max_size, tuple(entries))


def valid_in_game(g: Game, f: Formula) -> int | None:
    """None when the formula holds at every play, else the least failing index."""
    return _Evaluator(g).first(f, False)
