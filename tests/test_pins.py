"""Output pins: the bytes of each producer below, checked by their SHA-256.

Each producer writes what a user or a later run reads: generator streams,
saved games, proof values, printed formulas and CLI output with its exit
codes. Any change to those bytes, however small, fails its pin. The
500-game `fuzz` report is pinned in acceptance criterion 1, which runs `fuzz`
in-process and hashes what it prints.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from blamelogic import (
    BUNDLED_NAMES,
    GenParams,
    SplitMix64,
    bundled_script,
    corpus_games,
    format_formula,
    random_game,
    save,
)
from blamelogic.cli import main
from conftest import ACCEPTANCE


def _lines(values):
    return "".join(f"{v}\n" for v in values).encode()


def splitmix64_streams():
    # The fuzz pin cannot catch a stream change: with no failures, its
    # report does not depend on the drawn formulas.
    seeds = (0, 2**64 - 1, 20260822)
    return _lines(rng.next64() for rng in map(SplitMix64, seeds) for _ in range(1000))


def corpus_documents():
    return b"".join(save(g) for g in corpus_games(ACCEPTANCE, 500))


def bundled_proofs_repr():
    return _lines(repr(bundled_script(name)) for name in BUNDLED_NAMES)


def bundled_proofs_printed():
    # Hypotheses, claim, then each line's formula and its phi/psi substitutions.
    def formulas(proof):
        yield from proof.hypotheses
        yield proof.claim
        for line in proof.lines:
            subst = line.just.subst or {}
            yield line.formula
            yield from (subst[k] for k in ("phi", "psi") if k in subst)

    return _lines(
        format_formula(f) for name in BUNDLED_NAMES for f in formulas(bundled_script(name))
    )


def blame_at_every_play():
    # stdout of `blame --formula p` at each play, each followed by its exit code.
    game = random_game(GenParams(seed=1, n_agents=4, n_actions=3, n_plays=16, n_props=2))
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.json"
        path.write_bytes(save(game))
        for play in range(len(game.plays)):
            with contextlib.redirect_stdout(out):
                code = main(["blame", "--game", str(path), "--play", str(play), "--formula", "p"])
            out.write(f"exit {code}\n")
    return out.getvalue().encode()


PINS = [
    (splitmix64_streams, "aa42f040bffa8050ed84bdbe12b3f865046c200780ddfb2ff58f184ebce75096"),
    (corpus_documents, "ff18bd88490df54ed7de05b8f2ad5dfa423fca107494b0176397cb8a4275eb45"),
    (bundled_proofs_repr, "081be96b4dd36ec7493d7967c65be9aaed087a3af67ee9935bac91192046808d"),
    (bundled_proofs_printed, "7ef74446f17a1e7056d3c46ed95fa853b3c2a0e70adaaef26c1ec29f41d83cde"),
    (blame_at_every_play, "196452d0f5fcb9aaaf12f386486a6cfd57acc2b9576f683a41998d67c678de24"),
]


@pytest.mark.parametrize("producer, digest", PINS, ids=[p.__name__ for p, _ in PINS])
def test_output_is_pinned(producer, digest):
    assert hashlib.sha256(producer()).hexdigest() == digest
