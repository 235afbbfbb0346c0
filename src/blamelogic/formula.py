"""Formula AST for the coalition blame logic.

The core grammar is propositions, !, ->, N (true at every play) and
B{...} (the coalition is blamable).  The usual derived connectives are
kept as first-class nodes.  "<N>" (true at some play) is not a node: it
is always stored desugared as Not(Necessity(Not(...))).

``truth_mask`` is the one Boolean fold over the propositional skeleton;
the model checker and the tautology checker differ only in the vectors
they give its atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "Coalition",
    "Formula",
    "Prop",
    "Not",
    "Implies",
    "Necessity",
    "Blame",
    "Top",
    "Bottom",
    "And",
    "Or",
    "Iff",
    "possibly",
    "truth_mask",
    "blame_nodes",
    "agents_mentioned",
    "check_ident",
    "is_ident",
]

_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# Keywords of the concrete syntax; an identifier spelled like one would
# not round-trip through the printer.
_RESERVED = frozenset({"true", "false"})


def is_ident(name: object) -> bool:
    return isinstance(name, str) and bool(_IDENT.match(name)) and name not in _RESERVED


def check_ident(name: str, role: str = "identifier") -> str:
    if not isinstance(name, str) or not _IDENT.match(name):
        raise ValueError(f"invalid {role} {name!r}: must start with a lowercase letter")
    if name in _RESERVED:
        raise ValueError(f"invalid {role} {name!r}: reserved word")
    return name


@dataclass(frozen=True, init=False)
class Coalition:
    """A set of agent ids in canonical form: sorted, deduplicated, possibly empty."""

    members: tuple[str, ...]

    def __init__(self, members: Iterable[str] = ()) -> None:
        canon = tuple(sorted({check_ident(a, "agent id") for a in members}))
        object.__setattr__(self, "members", canon)

    @classmethod
    def _canonical(cls, members: tuple[str, ...]) -> "Coalition":
        """Wrap members that are already sorted, deduplicated and checked."""
        c = object.__new__(cls)
        object.__setattr__(c, "members", members)
        return c

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, agent: object) -> bool:
        return agent in self.members

    def issubset(self, other: "Coalition") -> bool:
        return set(self.members) <= set(other.members)

    def isdisjoint(self, other: "Coalition") -> bool:
        return not (set(self.members) & set(other.members))

    def union(self, other: "Coalition") -> "Coalition":
        return Coalition(self.members + other.members)

    def __str__(self) -> str:
        return "{" + ",".join(self.members) + "}"


class Formula:
    """Base marker; concrete node types are the dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True)
class Prop(Formula):
    name: str

    def __post_init__(self) -> None:
        check_ident(self.name, "proposition")


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Necessity(Formula):
    child: Formula


@dataclass(frozen=True)
class Blame(Formula):
    coalition: Coalition
    child: Formula

    def __post_init__(self) -> None:
        if not isinstance(self.coalition, Coalition):
            object.__setattr__(self, "coalition", Coalition(self.coalition))


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


def possibly(f: Formula) -> Formula:
    """The "<N>" connective: true at some play.  Stored desugared."""
    return Not(Necessity(Not(f)))


def truth_mask(
    f: Formula, full: int, atom: Callable[[Formula], int], memo: dict[int, int]
) -> int:
    """Truth vector of ``f`` as a bitmask with one bit per row.

    ``full`` has every row's bit set; a row is a play for the model
    checker and a truth-table row for the tautology checker.  The fold
    computes Not, Implies, And, Or, Iff, Top and Bottom itself and asks
    ``atom(node)`` for every Prop, Necessity and Blame node; ``atom`` may
    fold a node's child through this function with the same memo.
    Children are folded left to right, and each node object at most once
    per memo.  ``memo`` maps ``id(node)`` to its vector, so the caller must
    keep every node of ``f`` alive while the memo is in use.  Identity
    keys cost nothing, where a structural key would pay the recursive
    dataclass hash at every node.
    """
    m = memo.get(id(f))
    if m is not None:
        return m
    if isinstance(f, Not):
        m = ~truth_mask(f.child, full, atom, memo) & full
    elif isinstance(f, Implies):
        m = (~truth_mask(f.left, full, atom, memo) | truth_mask(f.right, full, atom, memo)) & full
    elif isinstance(f, And):
        m = truth_mask(f.left, full, atom, memo) & truth_mask(f.right, full, atom, memo)
    elif isinstance(f, Or):
        m = truth_mask(f.left, full, atom, memo) | truth_mask(f.right, full, atom, memo)
    elif isinstance(f, Iff):
        m = ~(truth_mask(f.left, full, atom, memo) ^ truth_mask(f.right, full, atom, memo)) & full
    elif isinstance(f, Top):
        m = full
    elif isinstance(f, Bottom):
        m = 0
    elif isinstance(f, (Prop, Necessity, Blame)):
        m = atom(f)
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[id(f)] = m
    return m


def blame_nodes(f: Formula) -> Iterator[Blame]:
    """Every Blame node in the tree, each before the nodes below it."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (Not, Necessity)):
            stack.append(node.child)
        elif isinstance(node, (Implies, And, Or, Iff)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Blame):
            yield node
            stack.append(node.child)


def agents_mentioned(f: Formula) -> set[str]:
    """Union of all Blame coalitions in the tree."""
    return {a for node in blame_nodes(f) for a in node.coalition}
