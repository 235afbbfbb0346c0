"""One test per acceptance criterion, numbered to match the build contract.

The sweep corpus (criterion 1) is shared by the cross-checks in criteria
4, 5, and 6, so it is built once per module.
"""

import contextlib
import hashlib
import io
import json
import time

import pytest

import conftest
from blamelogic import (
    Blame,
    Coalition,
    Necessity,
    blamable_coalitions,
    check_proof,
    evaluate_all,
    format_formula,
    load,
    parse,
    satisfies,
    valid_in_game,
)
from blamelogic.formula import And, Bottom, Iff, Implies, Not, Or, Prop, Top
from blamelogic.cli import main
from blamelogic.generate import GenParams, SplitMix64, corpus_games, random_formula
from blamelogic.proofs import BUNDLED_NAMES, bundled_script
from proof_mutations import mutants

SWEEP_GAMES = 500
INSTANCES_PER_SCHEMA = 20


@pytest.fixture(scope="module")
def sweep_corpus():
    return corpus_games(conftest.ACCEPTANCE, SWEEP_GAMES)


def test_criterion_1_soundness_sweep():
    # The report as `fuzz --seed 20260822 --games 500` prints it, run in-process.
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["fuzz", "--seed", "20260822", "--games", "500"])
    elapsed = time.perf_counter() - t0
    printed = out.getvalue().encode()
    report = json.loads(printed)
    assert code == 0
    assert report["failures"] == []
    assert all(n == SWEEP_GAMES * INSTANCES_PER_SCHEMA for n in report["schema_totals"].values())
    assert elapsed < 60.0
    assert (
        hashlib.sha256(printed).hexdigest()
        == "c33dc9f9c25848508f62ec1f5087f8d9d924f3c21496ba4928a223a67265f0ea"
    )
    print(f"criterion 1: PASS ({9 * SWEEP_GAMES * INSTANCES_PER_SCHEMA} instances, "
          f"0 failures, {elapsed:.1f}s)")


def test_criterion_2_lopez_golden():
    game = load(conftest.LOPEZ_DOC)
    assert evaluate_all(game, parse("B{lopez} dead")).truth == (False, False, True)
    report = blamable_coalitions(game, 2, parse("dead"), max_size=1)
    assert report.as_dict() == {
        "play": 2,
        "formula": "dead",
        "max_size": 1,
        "blamable": [
            {"coalition": ["lopez"], "witness": {"lopez": "hide"}, "minimal": True}
        ],
    }
    assert evaluate_all(game, parse("B{} dead")).truth == (False, False, False)
    print("criterion 2: PASS (truth vector, blame report, empty coalition)")


def test_criterion_3_proof_kernel_and_mutants():
    required = (
        "lemma1", "lemma2", "lemma3_instance", "lemma4", "lemma5_n2",
        "lemma5_n3", "lemma6_n2", "lemma7", "lemma8_n2",
    )
    assert set(required) <= set(BUNDLED_NAMES)
    total = 0
    for name in BUNDLED_NAMES:
        proof = bundled_script(name)
        assert check_proof(proof) is None, name
        suite = list(mutants(proof))
        assert len(suite) >= 20, name
        for label, bad in suite:
            assert check_proof(bad) is not None, f"{name}: {label}"
        total += len(suite)
    print(f"criterion 3: PASS ({len(BUNDLED_NAMES)} scripts ok, {total} mutants rejected)")


def test_criterion_4_kernel_semantics_cross_check(sweep_corpus):
    theorems = [
        (name, bundled_script(name).claim)
        for name in BUNDLED_NAMES
        if not bundled_script(name).hypotheses
    ]
    assert {name for name, _ in theorems} == {"lemma1", "lemma2", "lemma7"}
    for name, claim in theorems:
        for k, game in enumerate(sweep_corpus):
            assert valid_in_game(game, claim) is None, (name, k)
    print(f"criterion 4: PASS ({len(theorems)} theorems x {len(sweep_corpus)} games)")


def test_criterion_5_s5_block(sweep_corpus):
    rng = SplitMix64(conftest.ACCEPTANCE.seed + 5)
    checked = 0
    for game in sweep_corpus:
        for _ in range(3):
            phi = random_formula(conftest.replace(conftest.ACCEPTANCE, seed=rng.next64()), game)
            box = Necessity(phi)
            for inst in (
                Implies(box, phi),
                Implies(box, Necessity(box)),
                Implies(Not(box), Necessity(Not(box))),
            ):
                assert valid_in_game(game, inst) is None, format_formula(inst)
                checked += 1
    print(f"criterion 5: PASS ({checked} instances)")


def test_criterion_6_fairness_invariance(sweep_corpus):
    rng = SplitMix64(conftest.ACCEPTANCE.seed + 6)
    done = 0
    while done < 200:
        game = sweep_corpus[rng.below(len(sweep_corpus))]
        phi = random_formula(conftest.replace(conftest.ACCEPTANCE, seed=rng.next64()), game)
        coalition = Coalition(rng.subset(game.agents))
        phi_truth = evaluate_all(game, phi).truth
        blame_truth = evaluate_all(game, Blame(coalition, phi)).truth
        values = {b for b, f in zip(blame_truth, phi_truth) if f}
        assert len(values) <= 1, (format_formula(phi), coalition)
        done += 1
    print("criterion 6: PASS (200 triples)")


def test_criterion_7_oracle_equivalence():
    params = GenParams(
        seed=31, n_agents=2, n_actions=2, n_outcomes=3,
        n_plays=8, n_props=4, formula_depth=4,
    )
    games = corpus_games(params, 200)
    rng = SplitMix64(params.seed + 7)
    for game in games:
        for _ in range(50):
            f = random_formula(conftest.replace(params, seed=rng.next64()), game)
            cached = evaluate_all(game, f).truth
            naive = tuple(satisfies(game, i, f) for i in range(len(game.plays)))
            assert cached == naive, format_formula(f)
    print("criterion 7: PASS (200 games x 50 formulas, bit-identical)")


def _deep_formula(rng, depth):
    # local generator: the corpus one stops at depth 6, this one goes to 8
    # and uses gnarlier identifiers than the rosters
    props = ("p", "q", "dead", "x_9", "longish_name7", "r2")
    agents = ("a", "b", "lopez", "g3")
    kind = rng.below(12)
    if depth == 0 or kind < 3:
        return (Prop(rng.choice(props)), Top(), Bottom())[rng.below(3) if kind == 0 else 0]
    child = lambda: _deep_formula(rng, depth - 1)
    if kind < 5:
        return Not(child())
    if kind == 5:
        return Necessity(child())
    if kind == 6:
        return Blame(Coalition(rng.subset(agents)), child())
    if kind == 7:
        return And(child(), child())
    if kind == 8:
        return Or(child(), child())
    if kind == 9:
        return Iff(child(), child())
    return Implies(child(), child())


def test_criterion_8_parser_round_trip():
    rng = SplitMix64(0xF0F0)
    for k in range(10_000):
        f = _deep_formula(rng, 8)
        text = format_formula(f)
        assert parse(text) == f, text
        assert format_formula(parse(text)) == text, text
    print("criterion 8: PASS (10000 formulas, identity and fixpoint)")


def test_criterion_9_suite_budget():
    elapsed = time.monotonic() - conftest.SESSION_T0
    assert elapsed < 300.0
    print(f"criterion 9: PASS so far ({elapsed:.0f}s elapsed; "
          "the closing timing test re-checks the full run)")
