"""Generated single-line corruptions of proof scripts.

Every mutant returned by mutants() must be rejected by check_proof; the
classes are chosen so rejection is guaranteed structurally, not just
likely: a flipped formula no longer matches its own justification, a
swapped mp would need a formula to contain itself, a duplicated
coalition breaks the disjointness side condition, and so on.
"""

from blamelogic import Not
from blamelogic.proofs import Proof, ProofLine, instantiate_schema
from conftest import replace


def _with_line(proof: Proof, index: int, line: ProofLine) -> Proof:
    lines = list(proof.lines)
    lines[index] = line
    return replace(proof, lines=tuple(lines))


def mutants(proof: Proof):
    """Yield (label, corrupted_proof) pairs, each one edit away from proof."""
    for k, line in enumerate(proof.lines, start=1):
        yield f"line {k}: negate formula", _with_line(
            proof, k - 1, replace(line, formula=Not(line.formula))
        )
        yield f"line {k}: bogus kind", _with_line(
            proof, k - 1, replace(line, just=replace(line.just, kind="oops"))
        )

        j = line.just
        if j.kind == "mp":
            i, m = j.refs
            yield f"line {k}: swap mp operands", _with_line(
                proof, k - 1, replace(line, just=replace(j, refs=(m, i)))
            )
            # retargeting either operand at a structurally different line
            # breaks the Implies(premise, this) equation
            for alt in range(1, k):
                if alt != m and proof.lines[alt - 1].formula != proof.lines[m - 1].formula:
                    yield f"line {k}: mp rule -> line {alt}", _with_line(
                        proof, k - 1, replace(line, just=replace(j, refs=(i, alt)))
                    )
                if alt != i and proof.lines[alt - 1].formula != proof.lines[i - 1].formula:
                    yield f"line {k}: mp premise -> line {alt}", _with_line(
                        proof, k - 1, replace(line, just=replace(j, refs=(alt, m)))
                    )
        elif j.kind == "nec":
            (src,) = j.refs
            for alt in range(1, k):
                if alt != src and proof.lines[alt - 1].formula != proof.lines[src - 1].formula:
                    yield f"line {k}: nec source -> line {alt}", _with_line(
                        proof, k - 1, replace(line, just=replace(j, refs=(alt,)))
                    )
        elif j.kind == "hyp":
            (ref,) = j.refs
            for alt, hyp in enumerate(proof.hypotheses, start=1):
                if alt != ref and hyp != proof.hypotheses[ref - 1]:
                    yield f"line {k}: hyp {ref} -> {alt}", _with_line(
                        proof, k - 1, replace(line, just=replace(j, refs=(alt,)))
                    )
        elif j.kind == "axiom":
            subst = dict(j.subst)
            for var in ("phi", "psi"):
                if var in subst:
                    bent = dict(subst)
                    bent[var] = Not(bent[var])
                    assert instantiate_schema(j.name, bent) != line.formula
                    yield f"line {k}: {j.name} {var} := !{var}", _with_line(
                        proof, k - 1, replace(line, just=replace(j, subst=bent))
                    )
            if j.name == "JointResponsibility" and len(subst["C"]) > 0:
                bent = dict(subst)
                bent["D"] = subst["C"]
                yield f"line {k}: overlap C and D", _with_line(
                    proof, k - 1, replace(line, just=replace(j, subst=bent))
                )
            if j.name == "Monotonicity" and subst["C"] != subst["D"]:
                bent = dict(subst)
                bent["C"], bent["D"] = subst["D"], subst["C"]
                yield f"line {k}: invert inclusion", _with_line(
                    proof, k - 1, replace(line, just=replace(j, subst=bent))
                )

    yield "negate claim", replace(proof, claim=Not(proof.claim))
    cites_hyps = any(line.just.kind == "hyp" for line in proof.lines)
    if cites_hyps and len(set(proof.hypotheses)) == len(proof.hypotheses):
        # shifting the list breaks every hyp citation: refs either dangle
        # or resolve to a different (distinct) formula
        yield "drop hypothesis 1", replace(proof, hypotheses=proof.hypotheses[1:])
