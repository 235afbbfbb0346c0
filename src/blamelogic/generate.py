"""Deterministic generation of games and formulas, plus soundness sweeps.

The random source is SplitMix64 (Steele, Lea and Flood 2014), fixed by
name on purpose: identical seeds must reproduce identical corpora and
reports on any platform, so no stdlib generator is involved.  It mixes
16 counter states at a time, each in its own 128-bit lane of one Python
int, so each multiply and xor-shift runs once per 16 outputs.  Per-game
sub-seeds are drawn from the master stream by game index, which keeps
reports independent of evaluation order.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence
from itertools import chain, count, product

from . import checker
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
    possibly,
)
from .game import Game, Play, save
from .parser import format_formula
from .proofs import SCHEMAS, instantiate_schema

__all__ = [
    "SplitMix64",
    "GenParams",
    "random_game",
    "random_formula",
    "corpus_games",
    "soundness_sweep",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

AGENT_ROSTER = ("a", "b", "c", "d")
PROP_ROSTER = ("p", "q", "r", "s")
_ACTION_ROSTER = ("act0", "act1", "act2", "act3")
_OUTCOME_ROSTER = ("out0", "out1", "out2", "out3")
# Each game size's least and greatest value, in the order a corpus game draws them.
_SIZES = {
    "n_agents": (1, len(AGENT_ROSTER)),
    "n_actions": (1, len(_ACTION_ROSTER)),
    "n_outcomes": (1, len(_OUTCOME_ROSTER)),
    "n_plays": (0, 16),
    "n_props": (1, len(PROP_ROSTER)),
}
# The acceptance sweep that `fuzz` runs: each game draws every size up to its greatest.
SWEEP_SHAPE = {name: high for name, (_, high) in _SIZES.items()} | {"formula_depth": 4}


# A block is 16 counter states, one per 128-bit lane of an int: lane k holds
# base + (k + 1) * _GAMMA.  Every lane is below 2**64 before each product with a
# 64-bit constant, so no carry crosses a lane.
_LANES = 16
_ONES = sum(1 << 128 * k for k in range(_LANES))
_LOW = _MASK64 * _ONES  # the low 64 bits of every lane
_STEPS = sum((k + 1) * _GAMMA << 128 * k for k in range(_LANES))
_UNPACK = struct.Struct("<" + "Q8x" * _LANES).unpack  # the low half of each lane


def _block(base: int) -> tuple[int, ...]:
    """The 16 outputs after counter state ``base``; exact for the first 2**59 blocks.

    A shift pulls the next lane's low bits into a lane's high half, so each is
    masked off but the last: only the low halves are read."""
    z = (base * _ONES + _STEPS) & _LOW
    z = (z ^ (z >> 30) & _LOW) * 0xBF58476D1CE4E5B9 & _LOW
    z = (z ^ (z >> 27) & _LOW) * 0x94D049BB133111EB & _LOW
    return _UNPACK((z ^ z >> 31).to_bytes(16 * _LANES, "little"))


class SplitMix64:
    def __init__(self, seed: int) -> None:
        blocks = map(_block, count(seed & _MASK64, _LANES * _GAMMA))
        self.next64: Callable[[], int] = chain.from_iterable(blocks).__next__

    def below(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"below({n}): the bound must be at least 1")
        # Modulo bias is negligible at these ranges and keeps the
        # stream portable.
        return self.next64() % n

    def choice(self, seq: Sequence):
        if not seq:
            raise ValueError("choice from an empty sequence")
        return seq[self.next64() % len(seq)]

    def sample(self, seq: Sequence, k: int) -> list:
        """k distinct elements, by partial Fisher-Yates."""
        pool = list(seq)
        if not 0 <= k <= len(pool):
            raise ValueError(f"sample of {k} from {len(pool)} elements")
        for i in range(k):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def subset(self, seq: Sequence) -> list:
        return [x for x in seq if self.next64() & 1]  # the bit below(2) reads


class GenParams(_Record):
    """Size bounds for one generated game and its formulas."""

    __slots__ = (
        "seed", "n_agents", "n_actions", "n_outcomes", "n_plays", "n_props", "formula_depth"
    )

    def __new__(
        cls,
        seed: int = 0,
        n_agents: int = 2,
        n_actions: int = 2,
        n_outcomes: int = 2,
        n_plays: int = 6,
        n_props: int = 2,
        formula_depth: int = 4,
    ) -> "GenParams":
        fields = seed, n_agents, n_actions, n_outcomes, n_plays, n_props, formula_depth
        params = cls._canonical(*fields)
        if type(seed) is not int or not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        for name, (low, high) in (*_SIZES.items(), ("formula_depth", (0, 6))):
            value = getattr(params, name)
            if type(value) is not int or not low <= value <= high:
                raise ValueError(f"{name} must be in [{low}, {high}]")
        return params


def random_game(params: GenParams) -> Game:
    """One valid game of exactly the requested sizes.

    Plays are drawn without replacement from profiles x outcomes, so a
    profile can occur with several outcomes or not at all; the count is
    clamped to the pool size.
    """
    rng = SplitMix64(params.seed)
    agents = AGENT_ROSTER[: params.n_agents]
    actions = _ACTION_ROSTER[: params.n_actions]
    outcomes = _OUTCOME_ROSTER[: params.n_outcomes]
    profiles = list(product(actions, repeat=len(agents)))
    pool = len(profiles) * len(outcomes)
    count = min(params.n_plays, pool)
    plays = []
    for code in rng.sample(range(pool), count):
        profile = dict(zip(agents, profiles[code // len(outcomes)]))
        plays.append(Play(profile, outcomes[code % len(outcomes)]))
    valuation = {
        name: frozenset(i for i in range(count) if rng.next64() & 1)
        for name in PROP_ROSTER[: params.n_props]
    }
    return Game(agents, actions, outcomes, tuple(plays), valuation)


def random_formula(params: GenParams, game: Game) -> Formula:
    """One formula over the game's propositions and agents, depth-bounded."""
    return _draw(params.seed, params.formula_depth, game, _leaf_table(game))


def _leaf_table(game: Game) -> tuple:
    """The leaves of the game's formulas: a Prop per proposition (or "p"), Top and Bottom."""
    return tuple(Prop(name) for name in sorted(game.valuation) or ["p"]), Top(), Bottom()


_LEAVES = (Prop, Prop, Prop, Top, Bottom)
_NODES = (Prop, Not, Implies, And, Or, Iff, Necessity, possibly, Blame)
_BINARY = frozenset({Implies, And, Or, Iff})


def _draw(seed: int, depth: int, game: Game, leaves: tuple) -> Formula:
    """The formula that ``seed`` draws over the game; ``leaves`` is its ``_leaf_table``."""
    props, top, bottom = leaves
    agents, next64 = game.agents, SplitMix64(seed).next64  # bound once: one call a draw

    def formula(depth: int, formula) -> Formula:  # handed itself: it names no cell of its own
        kind = _LEAVES[next64() % len(_LEAVES)] if depth <= 0 else _NODES[next64() % len(_NODES)]
        if kind is possibly and depth < 3:
            kind = Not  # "<N>" desugars to three nodes, so it needs the room
        if kind is Prop:
            return props[next64() % len(props)]
        if kind is Top or kind is Bottom:
            return top if kind is Top else bottom
        if kind in _BINARY:
            left = formula(depth - 1, formula)
            return kind(left, formula(depth - 1, formula))
        if kind is Blame:
            members = tuple(sorted([a for a in agents if next64() % 2]))  # a game's ids are valid
            return Blame(Coalition._canonical(members), formula(depth - 1, formula))
        return kind(formula(depth - (3 if kind is possibly else 1), formula))

    return formula(depth, formula)


def _corpus_game(params: GenParams, sub_seed: int) -> tuple[Game, SplitMix64]:
    """Build game number i of a corpus and hand back its live stream."""
    rng = SplitMix64(sub_seed)
    seed = rng.next64()  # then each size, in table order
    sizes = {n: low + rng.below(getattr(params, n) - low + 1) for n, (low, _) in _SIZES.items()}
    return random_game(GenParams(seed, **sizes, formula_depth=params.formula_depth)), rng


def corpus_games(params: GenParams, count: int) -> list[Game]:
    """The exact game corpus a sweep with these params walks through."""
    if type(count) is not int or count < 0:
        raise ValueError(f"count ({count}) must not be negative")
    master = SplitMix64(params.seed)
    return [_corpus_game(params, master.next64())[0] for _ in range(count)]


def _sample_subst(
    rng: SplitMix64, params: GenParams, game: Game, schema_name: str, leaves: tuple
) -> dict:
    schema = SCHEMAS[schema_name]
    subst = {  # phi is drawn before psi
        name: _draw(rng.next64(), params.formula_depth, game, leaves)
        for name in ("phi", "psi")
        if name in schema.metavars
    }
    if "C" in schema.metavars:
        # A game's ids are valid and distinct, so the members need only sorting.
        c = rng.subset(game.agents)
        subst["C"] = Coalition._canonical(tuple(sorted(c)))
        if "D" in schema.metavars:
            # D adds agents outside C to C for "subset", or is them alone.
            extra = rng.subset([a for a in game.agents if a not in c])
            d = c + extra if schema.side_condition == "subset(C,D)" else extra
            subst["D"] = Coalition._canonical(tuple(sorted(d)))
    return subst


def _first_play(
    game: Game, evaluate_all_fn: Callable[[Game, Formula], checker.EvalTable] | None
) -> Callable[[Formula, bool], int | None]:
    """``first(f, value)``: the least play where f has that truth value, or None.
    Without ``evaluate_all_fn``, one evaluator answers for all the game's formulas."""
    if evaluate_all_fn is None:
        return checker._Evaluator(game).first
    return lambda f, value: next(
        (i for i, v in enumerate(evaluate_all_fn(game, f).truth) if bool(v) is value), None
    )


def soundness_sweep(
    params: GenParams,
    games: int,
    instances_per_schema: int,
    *,
    evaluate_all_fn: Callable[[Game, Formula], checker.EvalTable] | None = None,
) -> dict:
    """Assert every sampled schema instance at every play of every game.

    Also checks, per game, that necessitation preserves validity and that
    an empty coalition is never blamable.  Failures land in the report
    with the canonical game document embedded; any failure means a bug.
    ``evaluate_all_fn`` exists so tests can aim the sweep at a broken
    evaluator and watch it object.
    """
    if not all(type(n) is int and n >= 0 for n in (games, instances_per_schema)):
        raise ValueError(
            f"games ({games}) and instances_per_schema ({instances_per_schema})"
            " must not be negative"
        )
    schema_names = sorted(SCHEMAS)
    totals = dict.fromkeys(schema_names, games * instances_per_schema)
    extras = {"necessitation": 0, "empty_coalition": 3 * games}
    failures: list[dict] = []

    def record(index: int, game: Game, label: str, formula: Formula, play: int) -> None:
        failures.append(
            {
                "game_index": index,
                "game": save(game).decode("utf-8"),
                "schema": label,
                "formula": format_formula(formula),
                "play": play,
            }
        )

    master = SplitMix64(params.seed)
    for index in range(games):
        game, rng = _corpus_game(params, master.next64())
        first, leaves = _first_play(game, evaluate_all_fn), _leaf_table(game)
        for name in schema_names:
            for _ in range(instances_per_schema):
                instance = instantiate_schema(name, _sample_subst(rng, params, game, name, leaves))
                if (play := first(instance, False)) is not None:
                    record(index, game, name, instance, play)
        for _ in range(3):
            f = _draw(rng.next64(), params.formula_depth, game, leaves)
            if first(f, False) is None:
                extras["necessitation"] += 1
                if (play := first(Necessity(f), False)) is not None:
                    record(index, game, "necessitation", Necessity(f), play)
            empty = Blame(Coalition(), f)
            if (play := first(empty, True)) is not None:
                record(index, game, "empty_coalition", empty, play)

    return {
        "seed": params.seed,
        "games": games,
        "instances_per_schema": instances_per_schema,
        "schema_totals": totals,
        "extra_totals": extras,
        "failures": failures,
    }
