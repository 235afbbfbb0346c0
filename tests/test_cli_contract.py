"""The CLI exit-code contract, held against mutated inputs.

Each case feeds main a mutated copy of a known-good input: the bundled
game through check and blame, a bundled proof script through proof, and
formula text through fmt and valid.  Whatever the input, main must
return 0, 1 or 2 without raising, print a stdout payload exactly when it
returns 0 or 1, and never print a traceback.  The mutations come from a
fixed SplitMix64 stream, so a failing case replays from its number.
"""

from importlib import resources

from blamelogic.cli import main
from blamelogic.generate import SplitMix64
from blamelogic.proofs import BUNDLED_NAMES
from conftest import canonical_lopez_bytes

SEED = 20261018
CASES = 1000
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
        try:
            code = main(argv)
        except Exception as e:  # any escape from main breaks the contract
            capsys.readouterr()
            broken.append((case, argv, f"raised {type(e).__name__}: {e}"))
            continue
        out, err = capsys.readouterr()
        if code not in (0, 1, 2):
            broken.append((case, argv, f"exit {code}"))
        elif bool(out) != (code in (0, 1)):
            broken.append((case, argv, f"exit {code} with stdout {out[:80]!r}"))
        elif "Traceback" in err:
            broken.append((case, argv, f"traceback: {err[-200:]}"))
    assert not broken, broken[:5]
