"""Fixed-size probes for the traced run: the ROADMAP size series, the
known-defect inputs and the interpreter start-up split.

These inputs come from a fixed seed, not the workload seed, so a series
point names the same input on every run and every commit.
"""

from __future__ import annotations

import random
import statistics

from blamelogic import (
    ParseError,
    blamable_coalitions,
    check_proof,
    evaluate_all,
    is_tautology,
    load,
    load_proof,
    parse,
)

import reference as ref
from clock import Calibrated
from tracing import NullTracer
from workloads import (
    DATA,
    LOPEZ_DOC,
    PROOF_FILES,
    chain,
    game_document,
    round_trip,
    round_trip_ok,
    start_seconds,
    tautology,
)

SERIES_SEED = 0
REPEATS = 5
INTERPRETER_REPEATS = 7


def _median_ms(fn, repeats: int = REPEATS) -> float:
    """Median time of `fn` at the reference speed."""
    clock = Calibrated()
    times = []
    for _ in range(repeats):
        clock.measure(fn)
        times.append(clock.scaled)
    return statistics.median(times) * 1e3


def size_series() -> dict[str, float]:
    rng = random.Random(SERIES_SEED)
    lopez = load((DATA / "lopez.json").read_bytes())
    out = {}
    for n in (100, 200, 400):
        formula = parse(ref.render(chain(rng, n)))
        out[f"series.evaluate_all.and{n}_ms"] = _median_ms(lambda: evaluate_all(lopez, formula))
    for n in (8, 10, 12):
        _, data, play = game_document(rng, n, 2, 64, "one")
        game, formula = load(data), parse("p")
        out[f"series.blamable_coalitions.agents{n}_ms"] = _median_ms(
            lambda: blamable_coalitions(game, play, formula, None), 3
        )
    for n in (8, 12, 16):
        formula = parse(ref.render(tautology(rng, n, True)))
        out[f"series.is_tautology.atoms{n}_ms"] = _median_ms(lambda: is_tautology(formula))
    for path in PROOF_FILES:
        data = path.read_bytes()
        proof = load_proof(data)
        out[f"series.load_proof.{path.stem}_ms"] = _median_ms(lambda: load_proof(data))
        out[f"series.check_proof.{path.stem}_ms"] = _median_ms(lambda: check_proof(proof))
    return out


def defect_probes() -> tuple[int, int]:
    """(inputs that still raise RecursionError, inputs answered wrongly).

    The 800-conjunct chain and the 200-deep parentheses are legal formulas
    that the recursive parser and evaluator cannot handle today.  A correct
    answer, or a typed ParseError refusing the depth, counts as fixed.
    """
    rng = random.Random(SERIES_SEED)
    lopez = load((DATA / "lopez.json").read_bytes())
    long_chain = chain(rng, 800)
    probes = (
        (ref.render(long_chain), ref.truth(LOPEZ_DOC, long_chain)),
        ("(" * 200 + "dead" + ")" * 200, ref.truth(LOPEZ_DOC, ("prop", "dead"))),
    )
    recursion_errors = wrong = 0
    for text, expected in probes:
        try:
            if not round_trip_ok(round_trip(lopez, text, NullTracer()), expected):
                wrong += 1
        except ParseError:
            pass
        except RecursionError:
            recursion_errors += 1
    return recursion_errors, wrong


def interpreter_split() -> dict[str, float]:
    """Bare interpreter start-up, and what importing the CLI module adds to it."""
    start_seconds("import blamelogic.cli", 1)  # writes the bytecode caches
    bare = start_seconds("pass", INTERPRETER_REPEATS)
    full = start_seconds("import blamelogic.cli", INTERPRETER_REPEATS)
    return {"cli.bare_interpreter_ms": bare * 1e3, "cli.import_ms": (full - bare) * 1e3}
