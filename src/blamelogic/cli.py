"""Command-line front end.

Exit codes are uniform across subcommands: 0 when the queried property
holds (or the requested output was produced), 1 when it fails with a
counterexample, 2 on usage or input errors.  stdout carries exactly the
documented payload; everything else goes to stderr.  Each subcommand
imports only the modules it runs.  argv is read against ``_COMMANDS``:
a command, then its flags as ``--flag VALUE`` or ``--flag=VALUE``.
"""

from __future__ import annotations

import sys

from . import __version__

__all__ = ["main", "run"]


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _load_game(path: str):
    from .game import load
    return load(_file_bytes(path))


def _cmd_check(game: str, play: int, formula: str) -> int:
    from .checker import _check_play_index, evaluate_all
    from .parser import parse
    g = _load_game(game)
    table = evaluate_all(g, parse(formula))
    _check_play_index(g, play)
    value = table.truth[play]
    print("true" if value else "false")
    return 0 if value else 1


def _cmd_valid(game: str, formula: str) -> int:
    from .checker import valid_in_game
    from .parser import parse
    failing = valid_in_game(_load_game(game), parse(formula))
    if failing is not None:
        print(f"counterexample: play {failing}")
        return 1
    print("ok")
    return 0


def _cmd_blame(game: str, play: int, formula: str, max_size: int | None) -> int:
    import json
    from .checker import blamable_coalitions
    from .parser import parse
    report = blamable_coalitions(_load_game(game), play, parse(formula), max_size)
    print(json.dumps(report.as_dict(), indent=2))
    return 0 if report.entries else 1


def _cmd_proof(file: str | None, bundled: str | None) -> int:
    from .proofs import BUNDLED_NAMES, bundled_script, check_proof, load_proof
    if (file is None) == (bundled is None):
        raise ValueError("give exactly one of FILE or --bundled NAME")
    if bundled is not None:
        if bundled not in BUNDLED_NAMES:
            raise ValueError(f"no bundled script {bundled!r} (known: {', '.join(BUNDLED_NAMES)})")
        proof = bundled_script(bundled)
    else:
        proof = load_proof(_file_bytes(file))
    failure = check_proof(proof)
    if failure is None:
        print("ok")
        return 0
    print(str(failure))
    return 1


def _cmd_fuzz(seed: int, games: int, instances: int) -> int:
    import json
    from .generate import SWEEP_SHAPE, GenParams, soundness_sweep
    report = soundness_sweep(GenParams(seed=seed, **SWEEP_SHAPE), games, instances)
    print(json.dumps(report, indent=2))
    return 0 if not report["failures"] else 1


def _cmd_fmt(formula: str) -> int:
    from .parser import format_formula, parse
    print(format_formula(parse(formula)))
    return 0


_GAME = ("--game", "FILE", str, ...)
_PLAY = ("--play", "INDEX", int, ...)
_FORMULA = ("--formula", "TEXT", str, ...)

# Each subcommand: name, help, handler and its arguments as (flag, metavar,
# type, default).  The default ... marks a required flag, and a flag without
# dashes is a positional.  Each value reaches the handler as the keyword that
# its flag names.
_COMMANDS = (
    ("check", "evaluate a formula at one play", _cmd_check, (_GAME, _PLAY, _FORMULA)),
    ("valid", "check a formula at every play", _cmd_valid, (_GAME, _FORMULA)),
    ("blame", "report blamable coalitions of at most K agents (default: all) at one play",
     _cmd_blame, (_GAME, _PLAY, _FORMULA, ("--max-size", "K", int, None))),
    ("proof", "check a proof script", _cmd_proof,
     (("file", "FILE", str, None), ("--bundled", "NAME", str, None))),
    ("fuzz", "run a soundness sweep over random games", _cmd_fuzz,
     (("--seed", "S", int, ...), ("--games", "N", int, ...), ("--instances", "M", int, 20))),
    ("fmt", "print a formula in canonical form", _cmd_fmt, (_FORMULA,)),
)  # fmt: skip

_USAGE = f"usage: blamelogic [-h] [--version] {{{','.join(c[0] for c in _COMMANDS)}}} ..."
_HELP = (f"{_USAGE}\n\nModel checking and proof checking for a bimodal logic of coalition\n"
         "blameworthiness.\n\ncommands:" + "".join(f"\n  {c[0]:7}{c[1]}" for c in _COMMANDS)
         + "\n\nRun 'blamelogic COMMAND -h' for the flags of a command.")


def _say(text: str, code: int = 0) -> int:
    """Print help to stdout and return 0, or a usage error to stderr and return 2."""
    print(text, file=sys.stderr if code else sys.stdout)
    return code


def _synopsis(flag: str, metavar: str, _, default) -> str:
    text = f"{flag} {metavar}" if flag[0] == "-" else metavar
    return text if default is ... else f"[{text}]"


def _read(argv: list[str]) -> tuple:
    """The handler that argv asks for and its keyword arguments; help, the
    version and usage errors come back as a call of ``_say``."""
    head = argv[0] if argv else None
    if head in ("-h", "--help", "--version"):
        return _say, {"text": f"blamelogic {__version__}" if head == "--version" else _HELP}
    command = next((c for c in _COMMANDS if c[0] == head), None)
    if command is None:
        error = f"unknown command {head!r}" if argv else "no command given"
        return _say, {"text": f"{_USAGE}\nblamelogic: error: {error}", "code": 2}
    name, summary, handler, arguments = command
    usage = " ".join([f"usage: blamelogic {name} [-h]", *(_synopsis(*a) for a in arguments)])
    if "-h" in argv or "--help" in argv:
        return _say, {"text": f"{usage}\n\n{summary}"}
    values = _values(argv[1:], arguments)
    if isinstance(values, str):
        return _say, {"text": f"{usage}\nblamelogic: error: {values}", "code": 2}
    return handler, {a[0].lstrip("-").replace("-", "_"): values.get(a[0], a[3]) for a in arguments}


def _values(argv: list[str], arguments: tuple) -> dict | str:
    """The value of each argument that argv gives, by flag, or the usage error in argv."""
    types = {a[0]: a[2] for a in arguments}
    positional = [a[0] for a in arguments if a[0][0] != "-"]
    values = {}
    rest = iter(argv)
    for arg in rest:
        if arg[:1] != "-" and positional:
            flag, value = positional.pop(0), arg
        else:
            flag, eq, value = arg.partition("=")
            if flag[:1] != "-" or flag not in types:
                return f"unknown argument {arg!r}"
            if not eq and (value := next(rest, None)) is None:
                return f"argument {flag}: expected a value"
        if flag in values:
            return f"argument {flag}: given twice"
        try:
            values[flag] = types[flag](value)
        except ValueError:
            return f"argument {flag}: invalid int value: {value!r}"
    missing = [a[0] for a in arguments if a[3] is ... and a[0] not in values]
    return f"the following arguments are required: {', '.join(missing)}" if missing else values


def main(argv: list[str] | None = None) -> int:
    handler, values = _read(sys.argv[1:] if argv is None else argv)
    try:
        return handler(**values)
    except (ValueError, IndexError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


def run() -> None:
    code = main()
    import gc
    gc.freeze()  # the exit-time collections skip what the OS is about to reclaim
    sys.exit(code)


if __name__ == "__main__":
    run()
