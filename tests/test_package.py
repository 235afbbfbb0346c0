"""The package's public names, which modules each command loads, and what they import."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blamelogic
from blamelogic import checker, formula, game, generate, parser, proofs

SRC = str(Path(blamelogic.__file__).resolve().parents[1])
MODULES = (formula, parser, game, checker, proofs, generate)

# The public names of the package before it loaded its modules lazily, less
# `validate`, which every Game now runs when it is built.
PUBLIC = {
    "And", "AtomLimitError", "BUNDLED_NAMES", "Blame", "BlameEntry", "BlameReport",
    "Bottom", "Coalition", "CoalitionCountError", "EvalTable", "Formula", "Game",
    "GameFormatError", "GameValidationError", "GenParams", "Iff",
    "Implies", "InstantiationError", "Justification", "Necessity", "Not", "Or",
    "ParseError", "Play", "Proof", "ProofFailure", "ProofFormatError", "ProofLine",
    "Prop", "SCHEMAS", "STRATEGY_CAP", "Schema", "SplitMix64", "Strategy",
    "StrategySpaceError", "Top",
    "blamable_coalitions", "blame_witness", "bundled_script", "check_proof",
    "checker", "corpus_games", "dump_proof",
    "evaluate_all", "format_formula", "formula", "game", "generate",
    "instantiate_schema", "is_tautology", "load", "load_proof", "parse", "parser",
    "possibly", "proofs", "random_formula", "random_game", "satisfies", "save",
    "soundness_sweep", "valid_in_game",
}  # fmt: skip

LOADED = "sorted(m.split('.')[1] for m in sys.modules if m.startswith('blamelogic.'))"


def fresh(code: str):
    """Run code in a new interpreter and decode the JSON it prints."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, blamelogic; print(json.dumps({LOADED}))") == []


def test_dir_and_star_import_give_the_public_names():
    names = fresh(
        "import json, blamelogic\n"
        "ns = {}\n"
        "exec('from blamelogic import *', ns)\n"
        "public = [n for n in dir(blamelogic) if not n.startswith('_')]\n"
        "print(json.dumps([public, sorted(set(ns) - {'__builtins__'})]))"
    )
    assert names == [sorted(PUBLIC), sorted(PUBLIC)]
    assert set(blamelogic.__all__) == PUBLIC


def test_each_name_is_its_modules_object():
    declared = [name for m in MODULES for name in m.__all__]
    assert len(declared) == len(set(declared))  # no name has two homes
    assert set(declared) | {m.__name__.split(".")[1] for m in MODULES} == PUBLIC
    for m in MODULES:
        assert getattr(blamelogic, m.__name__.split(".")[1]) is m
        for name in m.__all__:
            assert getattr(blamelogic, name) is getattr(m, name)
            assert vars(blamelogic)[name] is getattr(m, name)  # cached


def test_unknown_name():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        blamelogic.no_such_name
    with pytest.raises(ImportError):
        from blamelogic import no_such_name  # noqa: F401


CHECKING = ["checker", "cli", "formula", "game", "parser"]
RUNS = {
    "fmt": (["--formula", "p & q"], ["cli", "formula", "parser"]),
    "check": (["--game", "GAME", "--play", "2", "--formula", "B{lopez} dead"], CHECKING),
    "valid": (["--game", "GAME", "--formula", "dead | !dead"], CHECKING),
    "blame": (["--game", "GAME", "--play", "2", "--formula", "dead"], CHECKING),
    "proof": (["--bundled", "lemma1"], ["cli", "formula", "game", "parser", "proofs"]),
    "fuzz": (
        ["--seed", "1", "--games", "1", "--instances", "1"],
        ["checker", "cli", "formula", "game", "generate", "parser", "proofs"],
    ),
}


@pytest.mark.parametrize("command", RUNS)
def test_each_subcommand_loads_the_modules_it_runs(lopez_file, command):
    args, loaded = RUNS[command]
    argv = [command] + [str(lopez_file) if a == "GAME" else a for a in args]
    code, modules = fresh(
        "import contextlib, io, json, sys\n"
        "from blamelogic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        f"print(json.dumps([code, {LOADED}]))"
    )
    assert (code, modules) == (0, loaded)


def test_no_command_loads_dataclasses_or_inspect(lopez_file):
    # Nor argparse, or gettext, which its first message lookup loads.
    runs = [
        [command] + [str(lopez_file) if a == "GAME" else a for a in args]
        for command, (args, _) in RUNS.items()
    ]
    codes, heavy = fresh(
        "import contextlib, io, json, sys\n"
        "from blamelogic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        "heavy = ('dataclasses', 'inspect', 'argparse', 'gettext')\n"
        "print(json.dumps([codes, [m for m in heavy if m in sys.modules]]))"
    )
    assert (codes, heavy) == ([0] * len(RUNS), [])


def test_fmt_loads_no_json():
    # Every other command reads or prints a JSON document; fmt needs no json.
    loaded = fresh(
        "import contextlib, io, sys\n"
        "from blamelogic.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['fmt', '--formula', 'p & q'])\n"
        "loaded = 'json' in sys.modules\n"
        "import json\n"
        "print(json.dumps([code, loaded]))"
    )
    assert loaded == [0, False]


def test_no_module_imports_a_name_it_never_reads():
    # The project runs no linter, so this is its one check for an import left behind.
    unread = []
    for path in sorted(Path(blamelogic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.stem}: {name}" for name in sorted(bound - read)]
    assert not unread, f"imported and never read: {unread}"


def test_no_output_or_cleanup_waits_on_a_finalizer():
    # cli.run() freezes the collector before it exits, so the collections at
    # shutdown skip whatever is still alive.  Nothing may depend on them: every
    # open() is the context expression of a with item, and no class has __del__.
    opened, unmanaged, finalizers = set(), [], []
    for path in sorted(Path(blamelogic.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        managed = {
            id(item.context_expr)
            for node in ast.walk(tree)
            if isinstance(node, (ast.With, ast.AsyncWith))
            for item in node.items
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "open" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                opened.add(path.stem)
                if id(node) not in managed:
                    unmanaged.append(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.ClassDef):
                finalizers += [
                    f"{path.stem}.{node.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "__del__"
                ]
    assert opened >= {"cli", "proofs"}
    assert not unmanaged, f"open() outside a with item: {unmanaged}"
    assert not finalizers, f"classes with __del__: {finalizers}"
