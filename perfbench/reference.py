"""Bench-side formulas and reference answers, independent of blamelogic.

Generated formulas are plain tuples, rendered to text by this module,
and evaluated here against the game document (a JSON dict), so a wrong
answer from the package cannot also be the expected one:

    ("prop", name) | ("top",) | ("bot",)
    ("not", x) | ("nec", x) | ("poss", x) | ("blame", members, x)
    ("and", [x, ...])                    flat chain, rendered left-nested
    ("or" | "imp" | "iff", x, y)
"""

from __future__ import annotations

from itertools import combinations, product

_BINARY = {"or": " | ", "imp": " -> ", "iff": " <-> "}


def render(t: tuple, top: bool = True) -> str:
    """Concrete syntax; compound operands of prefixes and chains get parentheses."""
    kind = t[0]
    if kind == "prop":
        return t[1]
    if kind == "top":
        return "true"
    if kind == "bot":
        return "false"
    if kind == "not":
        return "!" + render(t[1], False)
    if kind == "nec":
        return "N " + render(t[1], False)
    if kind == "poss":
        return "<N> " + render(t[1], False)
    if kind == "blame":
        return "B{" + ",".join(t[1]) + "} " + render(t[2], False)
    if kind == "and":
        text = " & ".join(render(x, False) for x in t[1])
    else:
        text = render(t[1], False) + _BINARY[kind] + render(t[2], False)
    return text if top else "(" + text + ")"


def truth(doc: dict, t: tuple) -> tuple[bool, ...]:
    """Truth vector over the plays of a game document, straight from the semantics."""
    n = len(doc["plays"])
    kind = t[0]
    if kind == "prop":
        holds = set(doc["valuation"].get(t[1], ()))
        return tuple(i in holds for i in range(n))
    if kind in ("top", "bot"):
        return (kind == "top",) * n
    if kind == "not":
        return tuple(not v for v in truth(doc, t[1]))
    if kind == "nec":
        return (all(truth(doc, t[1])),) * n
    if kind == "poss":
        return (any(truth(doc, t[1])),) * n
    if kind == "blame":
        child = truth(doc, t[2])
        prevented = _preventing_strategy(doc, t[1], child) is not None
        return tuple(v and prevented for v in child)
    if kind == "and":
        vectors = [truth(doc, x) for x in t[1]]
        return tuple(all(column) for column in zip(*vectors)) if vectors else (True,) * n
    left, right = truth(doc, t[1]), truth(doc, t[2])
    if kind == "or":
        return tuple(a or b for a, b in zip(left, right))
    if kind == "imp":
        return tuple(not a or b for a, b in zip(left, right))
    return tuple(a == b for a, b in zip(left, right))


def _preventing_strategy(doc: dict, coalition, child: tuple[bool, ...]) -> dict | None:
    """Lexicographically first joint action that no child-satisfying play agrees with.

    Members vary in game agent order, the first one slowest, and actions
    in listed order.  The empty coalition has one (empty) strategy, which
    every play agrees with.
    """
    members = [a for a in doc["agents"] if a in coalition]
    blocked = {
        tuple(play["profile"][a] for a in members)
        for play, holds in zip(doc["plays"], child)
        if holds
    }
    for choice in product(doc["actions"], repeat=len(members)):
        if choice not in blocked:
            return dict(zip(members, choice))
    return None


def blame_report(doc: dict, play: int, formula_text: str, child: tuple[bool, ...]) -> dict:
    """The expected `blamable_coalitions(max_size=None).as_dict()` for a truth vector.

    Every coalition is tried.  A blamable coalition is minimal when no
    coalition one member smaller is blamable; that settles minimality
    because blamability is upward closed (a preventing strategy extends
    to any superset).
    """
    found: dict[tuple[str, ...], dict] = {}
    if child[play]:
        agents = sorted(doc["agents"])
        for size in range(1, len(agents) + 1):
            for members in combinations(agents, size):
                witness = _preventing_strategy(doc, members, child)
                if witness is not None:
                    found[members] = witness
    return {
        "play": play,
        "formula": formula_text,
        "max_size": len(doc["agents"]),
        "blamable": [
            {
                "coalition": list(members),
                "witness": witness,
                "minimal": not any(
                    members[:i] + members[i + 1 :] in found for i in range(len(members))
                ),
            }
            for members, witness in found.items()
        ],
    }


def structure(formulas) -> tuple[int, int, list[int]]:
    """Tree node count, distinct subformula count and a structural key per root.

    Works on blamelogic formula objects through their public fields,
    iteratively so deep formulas do not exhaust the stack, and memoised
    on object identity so shared subtrees are walked once.  Two roots are
    structurally equal exactly when their keys are equal.
    """
    keys: dict[tuple, int] = {}
    memo: dict[int, tuple[int, int]] = {}  # id(node) -> (key, tree size)
    total = 0
    roots = []
    for root in formulas:
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in memo:
                continue
            kids = [getattr(node, f) for f in ("left", "right", "child") if hasattr(node, f)]
            if not expanded:
                stack.append((node, True))
                stack.extend((k, False) for k in kids)
                continue
            coalition = getattr(node, "coalition", None)
            label = (
                type(node).__name__,
                getattr(node, "name", None),
                None if coalition is None else tuple(coalition),
                tuple(memo[id(k)][0] for k in kids),
            )
            key = keys.setdefault(label, len(keys))
            memo[id(node)] = (key, 1 + sum(memo[id(k)][1] for k in kids))
        key, size = memo[id(root)]
        total += size
        roots.append(key)
    return total, len(keys), roots
