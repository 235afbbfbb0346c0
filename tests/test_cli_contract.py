"""The CLI exit-code contract, held against mutated inputs.

Each case feeds main a mutated copy of a known-good input: the bundled
game through check and blame, a bundled proof script through proof, and
formula text through fmt and valid.  A second set mutates argv itself:
flags dropped, repeated, reordered, abbreviated or joined to their values
by ``=``, integers that are not, unknown commands and a trailing flag with
no value.  Whatever the input, main must return 0, 1 or 2 without raising,
print a stdout payload exactly when it returns 0 or 1, and never print a
traceback.  The mutations come from a fixed SplitMix64 stream, so a
failing case replays from its number.
"""

from importlib import resources
from itertools import chain

import pytest

from blamelogic.cli import main
from blamelogic.generate import SplitMix64
from blamelogic.proofs import BUNDLED_NAMES
from conftest import canonical_lopez_bytes

SEED = 20261018
CASES = 1000
ARGV_CASES = 400
# Each command's well-formed argv: the command, then its flag groups.
ARGVS = [
    ["check", ["--game", "GAME"], ["--play", "2"], ["--formula", "B{lopez} dead"]],
    ["valid", ["--game", "GAME"], ["--formula", "dead | !dead"]],
    ["blame", ["--game", "GAME"], ["--play", "2"], ["--formula", "dead"], ["--max-size", "1"]],
    ["proof", ["--bundled", "lemma1"]],
    ["fuzz", ["--seed", "1"], ["--games", "1"], ["--instances", "1"]],
    ["fmt", ["--formula", "p & q"]],
]
FLAGS = ["--game", "--play", "--formula", "--max-size", "--bundled", "--seed", "--games"]
NOT_INTS = ["x", "1.5", "", "0x10", "1e3", "--", "-"]
FORMULAS = [
    "B{lopez} dead",
    "N (dead -> B{lopez} dead)",
    "<N> !dead & (dead <-> true) | false",
    "B{} dead -> N B{lopez} !!dead",
]


def _mutate(rng: SplitMix64, data: bytes) -> bytes:
    """One to four edits: overwrite, delete a run, insert, or repeat a slice."""
    data = bytearray(data)
    for _ in range(1 + rng.below(4)):
        i = rng.below(len(data) + 1)
        op = rng.below(4)
        # bytes drawn from the input itself keep most mutants lexically plausible
        byte = data[rng.below(len(data))] if data and rng.below(4) else rng.below(256)
        if op == 0 and i < len(data):
            data[i] = byte
        elif op == 1:
            del data[i : i + 1 + rng.below(8)]
        elif op == 2:
            data[i:i] = bytes([byte])
        else:
            # repeating a slice hundreds of times reaches the nesting limits
            data[i:i] = data[i : i + 1 + rng.below(16)] * (1 + rng.below(300))
    return bytes(data)


def _argv_mutant(rng: SplitMix64, game: str) -> list[str]:
    """A well-formed argv with one to three edits, each to a command or a flag group."""
    command, *groups = rng.choice(ARGVS)
    groups = [[game if a == "GAME" else a for a in g] for g in groups]
    trailing = []
    for _ in range(1 + rng.below(3)):
        op = rng.below(8)
        if op == 6:
            command = rng.choice(["nope", command[:-1], command.upper(), "", "-" + command])
        elif op == 7:
            trailing = [rng.choice(FLAGS)]
        elif groups:
            i = rng.below(len(groups))
            if op == 0:
                del groups[i]
            elif op == 1:
                groups.insert(rng.below(len(groups) + 1), list(groups[i]))
            elif op == 2:
                j = rng.below(len(groups))
                groups[i], groups[j] = groups[j], groups[i]
            elif op == 3:
                flag = groups[i][0]  # an earlier edit may have shortened it
                groups[i][0] = flag[: 2 + rng.below(max(1, len(flag) - 2))]
            elif op == 4:
                groups[i] = ["=".join(groups[i])]
            else:
                groups[i][-1] = rng.choice(NOT_INTS)
    return [command, *chain.from_iterable(groups), *trailing]


def _run(argv: list[str], capsys):
    """main's exit code on argv, and how that call breaks the contract, or None."""
    try:
        code = main(argv)
    except Exception as e:  # any escape from main breaks the contract
        capsys.readouterr()
        return None, f"raised {type(e).__name__}: {e}"
    out, err = capsys.readouterr()
    if code not in (0, 1, 2):
        return code, f"exit {code}"
    if bool(out) != (code in (0, 1)):
        return code, f"exit {code} with stdout {out[:80]!r}"
    if "Traceback" in err:
        return code, f"traceback: {err[-200:]}"
    return code, None


def _proof_bytes(name: str) -> bytes:
    return resources.files("blamelogic").joinpath(f"data/proofs/{name}.json").read_bytes()


def test_exit_code_contract_holds_for_mutated_inputs(capsys, tmp_path):
    rng = SplitMix64(SEED)
    game = canonical_lopez_bytes()
    proofs = [_proof_bytes(name) for name in BUNDLED_NAMES]
    good_game = tmp_path / "lopez.json"
    good_game.write_bytes(game)
    mutated = tmp_path / "mutated.json"
    broken = []
    for case in range(CASES):
        command = ("check", "blame", "proof", "fmt", "valid")[rng.below(5)]
        if command in ("check", "blame"):
            mutated.write_bytes(_mutate(rng, game))
            play = str(rng.below(4))
            argv = [command, "--game", str(mutated), "--play", play, "--formula", rng.choice(FORMULAS)]
        elif command == "proof":
            mutated.write_bytes(_mutate(rng, rng.choice(proofs)))
            argv = ["proof", str(mutated)]
        else:
            text = _mutate(rng, rng.choice(FORMULAS).encode()).decode("latin-1")
            argv = [command, "--formula", text]
            if command == "valid":
                argv[1:1] = ["--game", str(good_game)]
        _, problem = _run(argv, capsys)
        if problem:
            broken.append((case, argv, problem))
    assert not broken, broken[:5]


def test_exit_code_contract_holds_for_mutated_argv(capsys, tmp_path):
    rng = SplitMix64(SEED)
    game = tmp_path / "lopez.json"
    game.write_bytes(canonical_lopez_bytes())
    broken, codes = [], set()
    for case in range(ARGV_CASES):
        argv = _argv_mutant(rng, str(game))
        code, problem = _run(argv, capsys)
        codes.add(code)
        if problem:
            broken.append((case, argv, problem))
    assert not broken, broken[:5]
    # The edits reach both the reader's refusals and the handlers.
    assert codes == {0, 1, 2}


# argv, exit code, and the start of stdout and of stderr: an empty start means an empty stream.
USAGE = [
    ([], 2, "", "usage: blamelogic [-h] [--version] {check,valid,blame,proof,fuzz,fmt} ...\n"),
    (["-h"], 0, "usage: blamelogic [-h] [--version] {check,", ""),
    (["blame", "-h"], 0,
     "usage: blamelogic blame [-h] --game FILE --play INDEX --formula TEXT [--max-size K]\n", ""),
    (["--version"], 0, "blamelogic 0.1.0\n", ""),
    (["nope"], 2, "", "usage: blamelogic [-h]"),
    (["check", "--game", "x"], 2, "",
     "usage: blamelogic check [-h] --game FILE --play INDEX --formula TEXT\nblamelogic: error: "),
]  # fmt: skip


@pytest.mark.parametrize("argv, code, out, err", USAGE)
def test_usage_outcomes(capsys, argv, code, out, err):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (bool(captured.out), bool(captured.err)) == (bool(out), bool(err))
    assert captured.out.startswith(out) and captured.err.startswith(err)
