"""Hilbert-style proof checking for the blame logic.

A proof is a line sequence over hypotheses, propositional tautologies,
axiom-schema instances, modus ponens, and necessitation.  Hypothesis
freeness is tracked per line: taut and axiom lines are free, hypothesis
lines are not, mp propagates freeness, and nec is accepted only on free
lines.  That keeps the hypothesis-mode proof relation to modus ponens
alone while still letting scripts cite full theorems they derive on the
side.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping

from .formula import (
    And,
    Blame,
    Coalition,
    Formula,
    Implies,
    Necessity,
    Not,
    Or,
    _Record,
    possibly,
    truth_mask,
)
from .game import _read_json
from .parser import ParseError, _parse, format_formula

__all__ = [
    "Schema",
    "SCHEMAS",
    "InstantiationError",
    "AtomLimitError",
    "ProofFormatError",
    "instantiate_schema",
    "is_tautology",
    "Justification",
    "ProofLine",
    "Proof",
    "ProofFailure",
    "check_proof",
    "load_proof",
    "dump_proof",
    "bundled_script",
    "BUNDLED_NAMES",
]

MAX_TAUTOLOGY_ATOMS = 20
_SCRIPT_KEYS = frozenset(("hypotheses", "claim", "lines"))  # the keys a script may have
_LINE_KEYS = frozenset(("formula", "just"))
_JUST_KEYS = frozenset(("kind", "from", "name", "subst"))


class InstantiationError(ValueError):
    """Bad substitution for a schema: wrong metavariables or side condition."""


class AtomLimitError(ValueError):
    """Tautology check refused: too many distinct atoms."""


class Schema(_Record):
    __slots__ = ("name", "metavars", "side_condition", "build")
    # side_condition is None or a key of _SIDE_CONDITIONS; build makes the instance


def _truth_n(phi: Formula) -> Formula:
    return Implies(Necessity(phi), phi)


def _truth_b(phi: Formula, c: Coalition) -> Formula:
    return Implies(Blame(c, phi), phi)


def _distributivity(phi: Formula, psi: Formula) -> Formula:
    return Implies(
        Necessity(Implies(phi, psi)), Implies(Necessity(phi), Necessity(psi))
    )


def _negative_introspection(phi: Formula) -> Formula:
    unknown = Not(Necessity(phi))
    return Implies(unknown, Necessity(unknown))


def _none_to_blame(phi: Formula) -> Formula:
    return Not(Blame(Coalition(), phi))


def _joint_responsibility(phi: Formula, psi: Formula, c: Coalition, d: Coalition) -> Formula:
    both = Or(phi, psi)
    return Implies(
        And(possibly(Blame(c, phi)), possibly(Blame(d, psi))),
        Implies(both, Blame(c.union(d), both)),
    )


def _blame_for_cause(phi: Formula, psi: Formula, c: Coalition) -> Formula:
    return Implies(
        Necessity(Implies(phi, psi)),
        Implies(Blame(c, psi), Implies(phi, Blame(c, phi))),
    )


def _monotonicity(phi: Formula, c: Coalition, d: Coalition) -> Formula:
    return Implies(Blame(c, phi), Blame(d, phi))


def _fairness(phi: Formula, c: Coalition) -> Formula:
    blamed = Blame(c, phi)
    return Implies(blamed, Necessity(Implies(phi, blamed)))


# Side condition -> (predicate on C and D, what a violation says).
_SIDE_CONDITIONS = {
    "disjoint(C,D)": (Coalition.isdisjoint, "C and D overlap"),
    "subset(C,D)": (Coalition.issubset, "C is not a subset of D"),
}

SCHEMAS: dict[str, Schema] = {
    s.name: s
    for s in (
        Schema("TruthN", ("phi",), None, _truth_n),
        Schema("TruthB", ("phi", "C"), None, _truth_b),
        Schema("Distributivity", ("phi", "psi"), None, _distributivity),
        Schema("NegativeIntrospection", ("phi",), None, _negative_introspection),
        Schema("NoneToBlame", ("phi",), None, _none_to_blame),
        Schema(
            "JointResponsibility",
            ("phi", "psi", "C", "D"),
            "disjoint(C,D)",
            _joint_responsibility,
        ),
        Schema("BlameForCause", ("phi", "psi", "C"), None, _blame_for_cause),
        Schema("Monotonicity", ("phi", "C", "D"), "subset(C,D)", _monotonicity),
        Schema("Fairness", ("phi", "C"), None, _fairness),
    )
}


def instantiate_schema(name: str, subst: Mapping[str, object]) -> Formula:
    """Fill the named schema's template; substitutions must bind its metavariables exactly."""
    if not isinstance(name, str) or name not in SCHEMAS:
        raise InstantiationError(f"unknown schema {name!r}")
    schema = SCHEMAS[name]
    if not isinstance(subst, Mapping):
        raise InstantiationError(f"{schema.name}: subst must be a mapping")
    bound = dict(subst)
    for var in schema.metavars:
        if var not in bound:
            raise InstantiationError(f"{schema.name}: unbound metavariable {var!r}")
    for var in bound:
        if var not in schema.metavars:
            raise InstantiationError(f"{schema.name}: extra metavariable {var!r}")
    for var in schema.metavars:
        value = bound[var]
        if var in ("phi", "psi"):
            if not isinstance(value, Formula):
                raise InstantiationError(f"{schema.name}: {var} must be a formula")
        elif not isinstance(value, Coalition):
            try:
                bound[var] = Coalition(value)  # accept any iterable of agent ids
            except (TypeError, ValueError) as e:
                raise InstantiationError(str(e)) from None
    if schema.side_condition is not None:
        holds, message = _SIDE_CONDITIONS[schema.side_condition]
        if not holds(bound["C"], bound["D"]):
            raise InstantiationError(f"{schema.name}: side condition violated, {message}")
    return schema.build(*(bound[var] for var in schema.metavars))


def is_tautology(f: Formula) -> bool:
    """Truth-table validity over the propositional skeleton."""
    # Modal-rooted subformulas are opaque atoms, numbered by a first fold
    # over no rows in the order it meets them.
    order: dict[Formula, int] = {}

    def number(atom: Formula, _) -> int:
        order.setdefault(atom, len(order))
        return 0

    truth_mask(f, 0, number, {})
    if len(order) > MAX_TAUTOLOGY_ATOMS:
        raise AtomLimitError(
            f"atom-count overflow: {len(order)} distinct atoms, limit {MAX_TAUTOLOGY_ATOMS}"
        )
    rows = 1 << len(order)
    full = (1 << rows) - 1
    masks = {atom: _column(i, rows) for atom, i in order.items()}
    return truth_mask(f, full, lambda atom, _: masks[atom], {}) == full


def _column(i: int, rows: int) -> int:
    """Rows whose index has bit ``i`` set: 2^i clear then 2^i set, doubled to ``rows``."""
    m, span = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
    while span < rows:
        m |= m << span
        span *= 2
    return m


class Justification(_Record):
    """One line's rule.  References are 1-based, as in script files:
    hyp refers into the hypothesis list, mp/nec into earlier lines."""

    __slots__ = ("kind", "refs", "name", "subst")  # kind: hyp, taut, axiom, mp or nec
    _defaults = ((), None, None)


class ProofLine(_Record):
    __slots__ = ("formula", "just")


class Proof(_Record):
    __slots__ = ("hypotheses", "claim", "lines")


class ProofFailure(_Record):
    __slots__ = ("line", "reason")  # line is 1-based; 0 when the proof as a whole is malformed

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}" if self.line else self.reason


def check_proof(proof: Proof) -> ProofFailure | None:
    """None when every line checks and the last line is the claim.
    A ``taut`` line over more than MAX_TAUTOLOGY_ATOMS atoms raises AtomLimitError."""
    for field in ("hypotheses", "lines"):
        if not isinstance(getattr(proof, field), (tuple, list)):
            return ProofFailure(0, f"{field} is not a tuple or list")
    free: list[bool] = []
    for num, line in enumerate(proof.lines, start=1):
        if not isinstance(line, ProofLine) or not isinstance(j := line.just, Justification):
            return ProofFailure(num, "not a ProofLine with a Justification")
        if not isinstance(line.formula, Formula):
            return ProofFailure(num, "formula is not a Formula")
        # Only a tuple or list of ints, bools excluded, holds line numbers.
        shown = list(j.refs) if isinstance(j.refs, (tuple, list)) else j.refs
        refs = shown if isinstance(shown, list) and all(type(r) is int for r in shown) else []
        if j.kind == "hyp":
            if len(refs) != 1 or not 1 <= refs[0] <= len(proof.hypotheses):
                return ProofFailure(num, f"bad hypothesis reference {shown}")
            if proof.hypotheses[refs[0] - 1] != line.formula:
                return ProofFailure(num, f"formula does not match hypothesis {refs[0]}")
            free.append(False)
        elif j.kind == "taut":
            try:
                ok = is_tautology(line.formula)
            except AtomLimitError as e:
                raise AtomLimitError(f"line {num}: {e}") from None
            if not ok:
                return ProofFailure(num, "not a propositional tautology")
            free.append(True)
        elif j.kind == "axiom":
            try:
                instance = instantiate_schema(j.name, j.subst or {})
            except InstantiationError as e:
                return ProofFailure(num, str(e))
            if instance != line.formula:
                return ProofFailure(num, f"formula is not that {j.name} instance")
            free.append(True)
        elif j.kind == "mp":
            if len(refs) != 2 or not all(1 <= r < num for r in refs):
                return ProofFailure(num, f"bad line reference {shown}")
            i, k = refs
            premise = proof.lines[i - 1].formula
            rule = proof.lines[k - 1].formula
            if rule != Implies(premise, line.formula):
                return ProofFailure(
                    num, f"line {k} is not (line {i} -> this line)"
                )
            free.append(free[i - 1] and free[k - 1])
        elif j.kind == "nec":
            if len(refs) != 1 or not 1 <= refs[0] < num:
                return ProofFailure(num, f"bad line reference {shown}")
            src = refs[0]
            if line.formula != Necessity(proof.lines[src - 1].formula):
                return ProofFailure(num, f"formula is not N applied to line {src}")
            if not free[src - 1]:
                return ProofFailure(num, "necessitation under hypothesis")
            free.append(True)
        else:
            return ProofFailure(num, f"unknown justification kind {j.kind!r}")
    if not proof.lines:
        return ProofFailure(0, "empty proof")
    if proof.lines[-1].formula != proof.claim:
        return ProofFailure(len(proof.lines), "final line does not match the claim")
    return None


class ProofFormatError(ValueError):
    """The document is not shaped like a proof script."""


def _parse_formula(text: object, nodes: dict, *where: object) -> Formula:
    if not isinstance(text, str):
        raise ProofFormatError(f"{' '.join(map(str, where))}: formula must be a string")
    try:
        return _parse(text, nodes)
    except ParseError as e:
        raise ProofFormatError(f"{' '.join(map(str, where))}: {e}") from e


def load_proof(document: bytes | str) -> Proof:
    """Parse a proof script; formulas use the concrete grammar, lines are 1-based.
    They share one parser table, so equal subformulas and texts are one object."""
    doc = _read_json(document, ProofFormatError)
    if not isinstance(doc, dict) or not _SCRIPT_KEYS <= doc.keys():
        raise ProofFormatError("script must have hypotheses, claim, and lines")
    if not doc.keys() <= _SCRIPT_KEYS:
        raise ProofFormatError(f"script: unknown keys {sorted(doc.keys() - _SCRIPT_KEYS)}")
    raw_hyps = doc["hypotheses"]
    if not isinstance(raw_hyps, list):
        raise ProofFormatError("hypotheses must be a list")
    nodes: dict = {}
    hypotheses = tuple(
        _parse_formula(h, nodes, "hypothesis", i) for i, h in enumerate(raw_hyps, start=1)
    )
    claim = _parse_formula(doc["claim"], nodes, "claim")
    raw_lines = doc["lines"]
    if not isinstance(raw_lines, list):
        raise ProofFormatError("lines must be a list")
    lines = []
    for i, entry in enumerate(raw_lines, start=1):
        if not isinstance(entry, dict) or not _LINE_KEYS <= entry.keys():
            raise ProofFormatError(f"line {i}: must have formula and just")
        if not entry.keys() <= _LINE_KEYS:
            raise ProofFormatError(f"line {i}: unknown keys {sorted(entry.keys() - _LINE_KEYS)}")
        formula = _parse_formula(entry["formula"], nodes, "line", i)
        raw_just = entry["just"]
        if not isinstance(raw_just, dict) or not isinstance(raw_just.get("kind"), str):
            raise ProofFormatError(f"line {i}: just must be an object with a string kind")
        if not raw_just.keys() <= _JUST_KEYS:
            unknown = sorted(raw_just.keys() - _JUST_KEYS)
            raise ProofFormatError(f"line {i} just: unknown keys {unknown}")
        if "name" in raw_just and not isinstance(raw_just["name"], str):
            raise ProofFormatError(f"line {i}: just name must be a string")
        kind = raw_just["kind"]
        refs = raw_just.get("from", [])
        if not isinstance(refs, list) or not all(
            isinstance(r, int) and not isinstance(r, bool) for r in refs
        ):
            raise ProofFormatError(f"line {i}: 'from' must be a list of line numbers")
        subst = None
        if "subst" in raw_just:
            raw_subst = raw_just["subst"]
            if not isinstance(raw_subst, dict):
                raise ProofFormatError(f"line {i}: subst must be an object")
            subst = {}
            for var, value in raw_subst.items():
                if var in ("phi", "psi"):
                    subst[var] = _parse_formula(value, nodes, "line", i, "subst", var)
                elif var in ("C", "D"):
                    if not isinstance(value, list) or not all(isinstance(a, str) for a in value):
                        raise ProofFormatError(f"line {i}: subst {var} must be a list of agent ids")
                    try:
                        subst[var] = Coalition(value)
                    except ValueError as e:
                        raise ProofFormatError(f"line {i}: subst {var}: {e}") from None
                else:
                    raise ProofFormatError(f"line {i}: unknown subst key {var!r}")
        lines.append(
            ProofLine(formula, Justification(kind, tuple(refs), raw_just.get("name"), subst))
        )
    return Proof(hypotheses, claim, tuple(lines))


def dump_proof(proof: Proof) -> bytes:
    """Canonical script bytes for a Proof value (inverse of load_proof)."""
    doc: dict = {
        "hypotheses": [format_formula(h) for h in proof.hypotheses],
        "claim": format_formula(proof.claim),
        "lines": [],
    }
    for line in proof.lines:
        just: dict = {"kind": line.just.kind}
        if line.just.name is not None:
            just["name"] = line.just.name
        if line.just.subst is not None:
            sub: dict = {}
            for var in ("phi", "psi", "C", "D"):
                if var in line.just.subst:
                    value = line.just.subst[var]
                    sub[var] = format_formula(value) if isinstance(value, Formula) else list(value)
            just["subst"] = sub
        if line.just.refs:
            just["from"] = list(line.just.refs)
        doc["lines"].append({"formula": format_formula(line.formula), "just": just})
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


BUNDLED_NAMES: tuple[str, ...] = (
    "lemma1",
    "lemma2",
    "lemma3_instance",
    "lemma4",
    "lemma5_n2",
    "lemma5_n3",
    "lemma6_n2",
    "lemma6_n3",
    "lemma7",
    "lemma8_n2",
    "lemma8_n3",
)


def bundled_script(name: str) -> Proof:
    if name not in BUNDLED_NAMES:
        raise KeyError(f"no bundled script named {name!r}")
    path = os.path.join(os.path.dirname(__file__), "data", "proofs", f"{name}.json")
    with open(path, "rb") as f:
        return load_proof(f.read())
