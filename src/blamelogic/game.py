"""Finite one-shot games: agents, actions, outcomes, plays, valuation.

A play is one complete action profile together with one outcome drawn
from the game's play list.  The mechanism is a relation: a profile may
occur in zero plays or in several plays with different outcomes.  The
valuation assigns each proposition the set of play indices where it is
true; unmentioned propositions are false everywhere.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping

from .formula import Coalition, _Record, is_ident

__all__ = [
    "Game",
    "Play",
    "Strategy",
    "GameFormatError",
    "GameValidationError",
    "load",
    "save",
]


class GameFormatError(ValueError):
    """The document is not shaped like a game file."""


class GameValidationError(ValueError):
    """The game breaks a structural invariant; ``violations`` lists each breach."""

    def __init__(self, violations: list[str]) -> None:
        super().__init__("; ".join(violations))
        self.violations = list(violations)

    def __reduce__(self):
        return type(self), (self.violations,)


class Play(_Record):
    __slots__ = ("profile", "outcome")

    def __new__(cls, profile: Mapping[str, str], outcome: str) -> "Play":
        return cls._canonical(dict(profile), outcome)


class Game(_Record):
    """A valid game: building one that breaks an invariant raises GameValidationError.
    Changing its ``valuation`` or a play's ``profile`` voids that; build a new Game."""

    __slots__ = ("agents", "actions", "outcomes", "plays", "valuation")

    def __new__(
        cls,
        agents: tuple[str, ...],
        actions: tuple[str, ...],
        outcomes: tuple[str, ...],
        plays: tuple[Play, ...] = (),
        valuation: Mapping[str, frozenset[int]] = {},  # copied, never mutated
    ) -> "Game":
        valuation = {name: _index_set(ix) for name, ix in dict(valuation).items()}
        g = cls._canonical(tuple(agents), tuple(actions), tuple(outcomes), tuple(plays), valuation)
        if violations := _violations(g):
            raise GameValidationError(violations)
        return g


class Strategy(_Record):
    """An action choice for exactly the members of one coalition.
    ``_canonical`` wraps a fresh choice whose domain is already exactly the coalition."""

    __slots__ = ("coalition", "choice")

    def __new__(cls, coalition: Coalition | Iterable[str], choice: Mapping[str, str]) -> "Strategy":
        if not isinstance(coalition, Coalition):
            coalition = Coalition(coalition)
        if set(choice := dict(choice)) != set(coalition.members):
            raise ValueError("strategy domain must equal the coalition")
        return cls._canonical(coalition, choice)


def _ordered(items: Iterable) -> list:
    """Sorted, or by type name and repr where the items do not compare."""
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=lambda x: (type(x).__name__, repr(x)))


def _index_set(indices: object) -> object:
    try:
        return frozenset(indices)
    except TypeError:  # not a collection of hashable indices: _violations reports it
        return indices


def _violations(g: Game) -> list[str]:
    """All invariant violations, in a stable order; empty means ok."""
    out: list[str] = []
    seen_agents: set[str] = set()
    for a in g.agents:
        if not is_ident(a):
            out.append(f"invalid agent id {a!r}")
        elif a in seen_agents:
            out.append(f"duplicate agent {a!r}")
        else:
            seen_agents.add(a)
    if not g.actions:
        out.append("empty action set")
    for group, label in ((g.actions, "action"), (g.outcomes, "outcome")):
        seen: set[str] = set()
        for x in group:
            if not isinstance(x, str) or not x:
                out.append(f"invalid {label} {x!r}")
            elif x in seen:
                out.append(f"duplicate {label} {x!r}")
            else:
                seen.add(x)

    # Only strings are looked up: a list among the fields is reported, not hashed.
    agent_set, action_set, outcome_set = (
        {x for x in group if isinstance(x, str)} for group in (g.agents, g.actions, g.outcomes)
    )
    seen_plays: set[tuple] = set()
    for i, play in enumerate(g.plays):
        for a in g.agents:
            if isinstance(a, str) and a not in play.profile:
                out.append(f"play {i}: profile missing agent {a!r}")
        for a, x in play.profile.items():
            if a not in agent_set:
                out.append(f"play {i}: unknown agent {a!r}")
            elif not isinstance(x, str) or x not in action_set:
                out.append(f"play {i}: action {x!r} not listed")
        if not isinstance(play.outcome, str) or play.outcome not in outcome_set:
            out.append(f"play {i}: outcome {play.outcome!r} not listed")
        try:
            if (key := (frozenset(play.profile.items()), play.outcome)) in seen_plays:
                out.append(f"duplicate play {i}")
            seen_plays.add(key)
        except TypeError:  # an unhashable action or outcome, reported above
            pass

    for name in _ordered(g.valuation):
        if not is_ident(name):
            out.append(f"invalid proposition name {name!r}")
        if not isinstance(indices := g.valuation[name], frozenset):
            out.append(f"valuation {name!r}: not a collection of play indices: {indices!r}")
            continue
        for k in _ordered(indices):
            # save writes a bool as true, which load refuses
            if isinstance(k, bool) or not isinstance(k, int) or not 0 <= k < len(g.plays):
                out.append(f"valuation {name!r}: play index out of range: {k}")
    return out


def _expect_str_list(doc: dict, key: str) -> list[str]:
    value = doc.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise GameFormatError(f"key {key!r} must be a list of strings")
    return value


def _read_json(document: bytes | str, error: type[ValueError]) -> object:
    """Decode a UTF-8 JSON document, reporting every failure as `error`."""
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        return json.loads(document)
    except UnicodeDecodeError as e:
        raise error(f"not UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise error(f"bad JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    except RecursionError as e:
        raise error("document nested too deeply") from e


def load(document: bytes | str) -> Game:
    """Parse a game document; raises on a malformed document or an invalid game."""
    doc = _read_json(document, GameFormatError)
    if not isinstance(doc, dict):
        raise GameFormatError("top level must be an object")
    required = ("agents", "actions", "outcomes", "plays", "valuation")
    for key in required:
        if key not in doc:
            raise GameFormatError(f"missing key {key!r}")
    for key in doc:
        if key not in required:
            raise GameFormatError(f"unexpected key {key!r}")

    agents = _expect_str_list(doc, "agents")
    actions = _expect_str_list(doc, "actions")
    outcomes = _expect_str_list(doc, "outcomes")

    raw_plays = doc["plays"]
    if not isinstance(raw_plays, list):
        raise GameFormatError("key 'plays' must be a list")
    plays = []
    for i, entry in enumerate(raw_plays):
        if (
            not isinstance(entry, dict)
            or set(entry) != {"profile", "outcome"}
            or not isinstance(entry["profile"], dict)
            or not isinstance(entry["outcome"], str)
            or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in entry["profile"].items()
            )
        ):
            raise GameFormatError(f"play {i} must be {{'profile': {{agent: action}}, 'outcome': str}}")
        plays.append(Play(entry["profile"], entry["outcome"]))

    raw_val = doc["valuation"]
    if not isinstance(raw_val, dict):
        raise GameFormatError("key 'valuation' must be an object")
    valuation: dict[str, frozenset[int]] = {}
    for name, indices in raw_val.items():
        if not isinstance(indices, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in indices
        ):
            raise GameFormatError(f"valuation {name!r} must be a list of play indices")
        valuation[name] = frozenset(indices)

    return Game(tuple(agents), tuple(actions), tuple(outcomes), tuple(plays), valuation)


def save(g: Game) -> bytes:
    """Canonical UTF-8 document; load(save(g)) == g, save(load(d)) is a fixpoint."""
    doc = {
        "agents": list(g.agents),
        "actions": list(g.actions),
        "outcomes": list(g.outcomes),
        "plays": [
            {"profile": {a: p.profile[a] for a in g.agents}, "outcome": p.outcome}
            for p in g.plays
        ],
        "valuation": {name: sorted(g.valuation[name]) for name in sorted(g.valuation)},
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
