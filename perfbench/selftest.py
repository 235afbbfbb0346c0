"""Shows that the benchmark's answer checks catch wrong answers.

    python3 perfbench/selftest.py

Each case feeds a deliberately wrong answer, or a deliberately broken
evaluator, through the same code path the benchmark uses, and expects it
to be counted as failed.  Exits 1 if any case slips through.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

from blamelogic import EvalTable, ProofFailure, evaluate_all  # noqa: E402

import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402


def broken_evaluate_all(game, formula):
    """evaluate_all with every truth value flipped."""
    table = evaluate_all(game, formula)
    return EvalTable(formula, tuple(not v for v in table.truth))


def sweep_cases():
    wl = workloads.Sweep(7, evaluate_all_fn=broken_evaluate_all)
    phase = run.run_phase(wl, wl.rounds(), 0.0, NullTracer())
    yield "sweep with a broken evaluate_all_fn is failed", phase.failed == phase.attempted == 1
    wl = workloads.Sweep(7)
    phase = run.run_phase(wl, wl.rounds(), 0.0, NullTracer())
    yield "sweep with the real evaluate_all passes", phase.failed == 0


def blame_cases():
    wl = workloads.Blame(7)
    tr = NullTracer()
    req = next(r for r in next(wl.rounds()) if len(r.expected["blamable"]) > 1)
    game, payload = wl.call(req, tr)
    yield "blame: the real answer passes", wl.check(req, (game, payload), tr)
    tampered = {
        "minimal flag flipped": lambda d: d["blamable"][-1].update(minimal=not d["blamable"][-1]["minimal"]),
        "witness changed": lambda d: d["blamable"][-1]["witness"].update(
            {a: "nope" for a in d["blamable"][-1]["witness"]}
        ),
        "entry dropped": lambda d: d["blamable"].pop(),
    }
    for label, change in tampered.items():
        doc = json.loads(payload)
        change(doc)
        yield f"blame: {label} is caught", not wl.check(req, (game, json.dumps(doc)), tr)


def text_cases():
    wl = workloads.Text(7)
    tr = NullTracer()
    batch = next(wl.rounds())
    formula_req = next(r for r in batch if r[0] == "formula")
    out = wl.call(formula_req, tr)
    yield "text: the real round trip passes", wl.check(formula_req, out, tr)
    formula, again, vector = out
    flipped = tuple(not v for v in vector)
    yield "text: a wrong truth vector is caught", not wl.check(formula_req, (formula, again, flipped), tr)
    other = wl.call(next(r for r in batch if r[0] == "formula" and r is not formula_req), tr)
    yield "text: a different re-parse is caught", not wl.check(formula_req, (formula, other[0], vector), tr)
    taut = next(r for r in batch if r[0] == "taut")
    yield "text: an inverted tautology verdict is caught", not wl.check(taut, not taut[2], tr)
    proof = next(r for r in batch if r[0] == "proof")
    yield "text: a failing proof is caught", not wl.check(proof, ProofFailure(1, "x"), tr)


def cli_cases():
    wl = workloads.Cli(7)
    tr = NullTracer()
    for req in next(wl.rounds()):
        out = wl.call(req, tr)
        name = req[0][0]
        yield f"cli {name}: the real answer passes", wl.check(req, out, tr)
        code, stdout = out
        yield f"cli {name}: a wrong exit code is caught", not wl.check(req, (code + 1, stdout), tr)
        if stdout.startswith("{"):
            doc = json.loads(stdout)
            doc[next(iter(doc))] = "tampered"
            wrong = json.dumps(doc)
        else:
            wrong = stdout.upper()
        yield f"cli {name}: a wrong payload is caught", not wl.check(req, (code, wrong), tr)


def main() -> int:
    missed = 0
    for cases in (sweep_cases, blame_cases, text_cases, cli_cases):
        for label, ok in cases():
            print(("ok   " if ok else "FAIL ") + label)
            missed += not ok
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
