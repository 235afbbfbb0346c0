"""Command-line front end.

Exit codes are uniform across subcommands: 0 when the queried property
holds (or the requested output was produced), 1 when it fails with a
counterexample, 2 on usage or input errors.  stdout carries exactly the
documented payload; everything else goes to stderr.  Each subcommand
imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__

__all__ = ["main", "run"]


def _load_game(path: str):
    from .game import load
    return load(Path(path).read_bytes())


def _cmd_check(args: argparse.Namespace) -> int:
    from .checker import _check_play_index, evaluate_all
    from .parser import parse
    game = _load_game(args.game)
    table = evaluate_all(game, parse(args.formula))
    _check_play_index(game, args.play)
    value = table.truth[args.play]
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_valid(args: argparse.Namespace) -> int:
    from .checker import valid_in_game
    from .parser import parse
    game = _load_game(args.game)
    failing = valid_in_game(game, parse(args.formula))
    if failing is not None:
        print(f"counterexample: play {failing}")
        return 1
    print("ok")
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    from .checker import blamable_coalitions
    from .parser import parse
    game = _load_game(args.game)
    report = blamable_coalitions(game, args.play, parse(args.formula), args.max_size)
    print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.entries else 1


def _cmd_proof(args: argparse.Namespace) -> int:
    from .proofs import BUNDLED_NAMES, bundled_script, check_proof, load_proof
    if (args.file is None) == (args.bundled is None):
        raise ValueError("give exactly one of FILE or --bundled NAME")
    if args.bundled is not None:
        if args.bundled not in BUNDLED_NAMES:
            raise ValueError(f"no bundled script {args.bundled!r} (known: {', '.join(BUNDLED_NAMES)})")
        proof = bundled_script(args.bundled)
    else:
        proof = load_proof(Path(args.file).read_bytes())
    failure = check_proof(proof)
    if failure is None:
        print("ok")
        return 0
    print(str(failure))
    return 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .generate import SWEEP_SHAPE, GenParams, soundness_sweep
    report = soundness_sweep(GenParams(seed=args.seed, **SWEEP_SHAPE), args.games, args.instances)
    print(json.dumps(report, indent=2))
    return 0 if not report["failures"] else 1


def _cmd_fmt(args: argparse.Namespace) -> int:
    from .parser import format_formula, parse
    print(format_formula(parse(args.formula)))
    return 0


_GAME = ("--game", {"required": True, "metavar": "FILE"})
_PLAY = ("--play", {"required": True, "type": int, "metavar": "INDEX"})
_FORMULA = ("--formula", {"required": True, "metavar": "TEXT"})

# Each subcommand: name, help, handler and its arguments as (flag, options).
_COMMANDS = (
    ("check", "evaluate a formula at one play", _cmd_check, (_GAME, _PLAY, _FORMULA)),
    ("valid", "check a formula at every play", _cmd_valid, (_GAME, _FORMULA)),
    ("blame", "report blamable coalitions at one play", _cmd_blame, (
        _GAME, _PLAY, _FORMULA,
        ("--max-size", {"type": int, "metavar": "K",
                        "help": "largest coalition size to report (default: every agent)"}),
    )),
    ("proof", "check a proof script", _cmd_proof, (
        ("file", {"nargs": "?", "metavar": "FILE"}),
        ("--bundled", {"metavar": "NAME"}),
    )),
    ("fuzz", "run a soundness sweep over random games", _cmd_fuzz, (
        ("--seed", {"required": True, "type": int, "metavar": "S"}),
        ("--games", {"required": True, "type": int, "metavar": "N"}),
        ("--instances", {"type": int, "default": 20, "metavar": "M"}),
    )),
    ("fmt", "print a formula in canonical form", _cmd_fmt, (_FORMULA,)),
)  # fmt: skip


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blamelogic",
        description="Model checking and proof checking "
        "for a bimodal logic of coalition blameworthiness.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, IndexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
