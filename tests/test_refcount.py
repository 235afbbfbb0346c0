"""No call leaves cyclic garbage: reference counting frees all that a call built.

With the cyclic collector off, a call is made once to warm every lazy import
and cache, the collector clears what that left, and the call is made again;
then ``gc.collect()`` must find nothing.  A closure that refers to itself
fails this, because its cell keeps it, and all it holds, alive in a cycle.

``save`` and ``dump_proof`` are left out: the stdlib's indented JSON encoder
behind them makes 33 cyclic objects a call on Python 3.10-3.12 (none on
3.13).  So are ``cli.main``'s ``blame`` and ``fuzz``, which print through
that encoder; its other subcommands are in.
"""

import gc
from importlib import resources

import pytest

from blamelogic import (
    BUNDLED_NAMES,
    AtomLimitError,
    Coalition,
    Game,
    GenParams,
    Play,
    StrategySpaceError,
    blamable_coalitions,
    blame_witness,
    check_proof,
    corpus_games,
    evaluate_all,
    format_formula,
    is_tautology,
    load,
    load_proof,
    parse,
    random_formula,
    random_game,
    satisfies,
    soundness_sweep,
    valid_in_game,
)
from blamelogic.cli import main
from conftest import ACCEPTANCE, LOPEZ_DOC

LOPEZ = load(LOPEZ_DOC)
TEXT = "B{lopez} dead & N (dead -> B{lopez} dead) | !N !B{lopez} !dead"
FORMULA = parse(TEXT)
PARAMS = GenParams(7, n_agents=3, n_actions=2, n_plays=8, n_props=3, formula_depth=6)
GAME = random_game(PARAMS)
GAME_FILE = str(resources.files("blamelogic").joinpath("data/lopez.json"))
PROOFS = [
    resources.files("blamelogic").joinpath(f"data/proofs/{name}.json").read_bytes()
    for name in BUNDLED_NAMES
]
# 21 agents with 2 actions each: 2**21 joint strategies, over STRATEGY_CAP.
CROWD = tuple(f"a{k}" for k in range(21))
CROWDED = Game(CROWD, ("x", "y"), ("o",), (Play(dict.fromkeys(CROWD, "x"), "o"),), {"p": {0}})


def raises(error, call, *args):
    """Make the call and swallow the error it must raise, keeping no reference to it."""
    try:
        call(*args)
    except error:
        return
    raise AssertionError(f"no {error.__name__}")


CALLS = {
    "parse": lambda: parse(TEXT),
    "format_formula": lambda: format_formula(FORMULA),
    "load": lambda: load(LOPEZ_DOC),
    "evaluate_all": lambda: evaluate_all(LOPEZ, FORMULA),
    "satisfies": lambda: satisfies(LOPEZ, 2, FORMULA),
    "valid_in_game": lambda: valid_in_game(LOPEZ, FORMULA),
    "blame_witness": lambda: blame_witness(LOPEZ, 2, Coalition(["lopez"]), parse("dead")),
    "blamable_coalitions": lambda: blamable_coalitions(LOPEZ, 2, parse("dead")).as_dict(),
    "load_proof+check_proof": lambda: [check_proof(load_proof(doc)) for doc in PROOFS],
    "is_tautology": lambda: is_tautology(parse("(p -> q) -> (!q -> !p) | N r")),
    "random_game": lambda: random_game(PARAMS),
    "random_formula": lambda: random_formula(PARAMS, GAME),
    "corpus_games": lambda: corpus_games(ACCEPTANCE, 5),
    "soundness_sweep": lambda: soundness_sweep(ACCEPTANCE, 2, 20),
    "StrategySpaceError": lambda: raises(
        StrategySpaceError, evaluate_all, CROWDED, parse("B{" + ",".join(CROWD) + "} p")
    ),
    "unknown_agent": lambda: raises(ValueError, evaluate_all, LOPEZ, parse("B{zed} dead")),
    "AtomLimitError": lambda: raises(
        AtomLimitError, is_tautology, parse(" | ".join(f"p{k}" for k in range(21)))
    ),
    "main fmt": lambda: main(["fmt", "--formula", TEXT]),
    "main check": lambda: main(["check", "--game", GAME_FILE, "--play", "2", "--formula", TEXT]),
    "main valid": lambda: main(["valid", "--game", GAME_FILE, "--formula", TEXT]),
    "main proof": lambda: main(["proof", "--bundled", "lemma1"]),
}


@pytest.mark.parametrize("name", CALLS)
def test_no_call_leaves_cyclic_garbage(name):
    call = CALLS[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
