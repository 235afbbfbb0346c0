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
from collections.abc import Callable, Iterable, Iterator
from operator import attrgetter

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
]

_IDENT = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# Keywords of the concrete syntax; an identifier spelled like one would
# not round-trip through the printer.
_RESERVED = frozenset({"true", "false"})


def is_ident(name: object) -> bool:
    return isinstance(name, str) and bool(_IDENT.match(name)) and name not in _RESERVED


def check_ident(name: str, role: str) -> str:
    if not isinstance(name, str) or not _IDENT.match(name):
        rule = "start with a lowercase letter"
        if isinstance(name, str) and "a" <= name[:1] <= "z":
            rule = "be a lowercase letter followed by letters, digits or _"
        raise ValueError(f"invalid {role} {name!r}: must {rule}")
    if name in _RESERVED:
        raise ValueError(f"invalid {role} {name!r}: reserved word")
    return name


def _frozen(self, name: str, *value: object) -> None:
    """A record's ``__setattr__`` and ``__delattr__``: both refuse."""
    # The error class is imported only when raised: its module costs 14 ms to load.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class _Value:
    """Base of the package's immutable values: records and formula nodes.

    A value's ``_key`` holds its fields, those named in ``_fields``, in
    order.  It compares (within one class) and hashes by ``_key``, and
    prints and pickles by its fields.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join([f"{k}={v!r}" for k, v in zip(self._fields, self._key)])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key


class _Record(_Value):
    """Base of the package's records: one slot per field, frozen.

    The fields are the ``__slots__``.  ``_fill`` sets them in order and is
    the ``__init__`` of a record without one, ``_defaults`` last.
    """

    __slots__ = ()
    _defaults: tuple = ()
    __setattr__ = __delattr__ = _frozen

    def __init_subclass__(cls) -> None:
        names = cls._fields = cls.__slots__
        # attrgetter reads the slots at C level; of one name it gives the bare value.
        get = attrgetter(*names)
        cls._key = property(get if len(names) > 1 else lambda self: (get(self),))
        # Written out, as dataclasses does: one call of the slot's own setter a field.
        body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
        scope = {f"_set_{n}": vars(cls)[n].__set__ for n in names}
        exec(f"def __init__(self, {', '.join(names)}):{body}", scope)
        fill = cls._fill = scope["__init__"]
        fill.__defaults__, fill.__qualname__ = cls._defaults, f"{cls.__qualname__}.__init__"
        if "__init__" not in vars(cls):
            cls.__init__ = cls._fill


class Coalition(_Record):
    """A set of agent ids in canonical form: sorted, deduplicated, possibly empty."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[str] = ()) -> None:
        if isinstance(members, str):  # iterating "ab" would give the agents a and b
            raise ValueError(f"a coalition takes a collection of agent ids, not {members!r}")
        _set_members(self, tuple(sorted({check_ident(a, "agent id") for a in members})))

    @classmethod
    def _canonical(cls, members: tuple[str, ...]) -> "Coalition":
        """Wrap members that are already sorted, deduplicated and checked."""
        c = object.__new__(cls)
        _set_members(c, members)
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


_set_members = vars(Coalition)["members"].__set__


class Formula(_Value):
    """Base of the node classes below.

    A node keeps its fields in its one slot, ``_key``; they are read-only
    properties over it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _key: tuple = ()

    def __init_subclass__(cls) -> None:
        # Each field becomes a read-only property over its place in _key.
        for i, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(lambda self, i=i: self._key[i]))


class Prop(Formula):
    __slots__ = ("_key",)
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        self._key = (check_ident(name, "proposition"),)


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class _Unary(Formula):
    __slots__ = ("_key",)
    _fields = ("child",)

    def __init__(self, child: Formula) -> None:
        if not isinstance(child, Formula):
            raise TypeError(f"not a formula: {child!r}")
        self._key = (child,)


class Not(_Unary):
    __slots__ = ()


class Necessity(_Unary):
    __slots__ = ()


class Blame(Formula):
    __slots__ = ("_key",)
    _fields = ("coalition", "child")

    def __init__(self, coalition: Coalition | Iterable[str], child: Formula) -> None:
        if not isinstance(coalition, Coalition):
            coalition = Coalition(coalition)
        if not isinstance(child, Formula):
            raise TypeError(f"not a formula: {child!r}")
        self._key = (coalition, child)


class _Binary(Formula):
    __slots__ = ("_key",)
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        if not isinstance(left, Formula) or not isinstance(right, Formula):
            raise TypeError(f"not a formula: {right if isinstance(left, Formula) else left!r}")
        self._key = (left, right)


class Implies(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


def possibly(f: Formula) -> Formula:
    """The "<N>" connective: true at some play.  Stored desugared."""
    return Not(Necessity(Not(f)))


def truth_mask(
    f: Formula, full: int, atom: Callable[[Formula, Callable], int], memo: dict[int, int]
) -> int:
    """Truth vector of ``f`` as a bitmask with one bit per row.

    ``full`` has every row's bit set; a row is a play for the model checker and a
    truth-table row for the tautology checker.  The fold computes Not, Implies, And,
    Or, Iff, Top and Bottom itself and asks ``atom(node, atom)`` for every Prop,
    Necessity and Blame node.  ``atom`` may fold a node's child through this
    function with the same memo and the ``atom`` it is handed, so no atom names
    itself: a closure that did would hold itself in a cycle, which reference
    counting never frees.  Every vector ``atom`` returns must lie within ``full``
    (no bit set outside it): negation is ``^ full``, so the result is then exact and
    within ``full`` too.  Children are folded left to right, and each node object at
    most once per memo.  ``memo`` maps ``id(node)`` to its vector, so the caller
    must keep every node folded into it alive while the memo is in use, over as many
    formulas as it serves: a new node could take a freed node's id and read its
    vector.  Identity keys cost nothing, where a structural key would pay the
    recursive hash at every node.
    """
    m = memo.get(id(f))
    if m is not None:
        return m
    try:
        op = _FOLDS[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    k = f._key  # a folded node's fields are its children
    if op is None:
        m = atom(f, atom)
    elif len(k) == 2:
        m = op(full, truth_mask(k[0], full, atom, memo), truth_mask(k[1], full, atom, memo))
    else:
        m = op(full, truth_mask(k[0], full, atom, memo)) if k else op(full)
    memo[id(f)] = m
    return m


# How each connective combines its children's vectors; None marks the
# nodes the caller's ``atom`` answers for.
_FOLDS = {
    Not: lambda full, c: c ^ full,
    Implies: lambda full, a, b: a ^ full | b,
    And: lambda full, a, b: a & b,
    Or: lambda full, a, b: a | b,
    Iff: lambda full, a, b: a ^ b ^ full,
    Top: lambda full: full,
    Bottom: lambda full: 0,
    Prop: None,
    Necessity: None,
    Blame: None,
}


def blame_nodes(f: Formula) -> Iterator[Blame]:
    """Every Blame node in the formula once, each before the nodes below it."""
    stack, seen = [f] if isinstance(f, Formula) else [], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:  # a shared subformula is walked once
            seen.add(id(node))
            if isinstance(node, Blame):
                yield node
            stack.extend(c for c in node._key if isinstance(c, Formula))
