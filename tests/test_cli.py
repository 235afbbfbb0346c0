import ast
import gc
import importlib.metadata
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import blamelogic.cli
from blamelogic.cli import main
from blamelogic.generate import SWEEP_SHAPE, GenParams, soundness_sweep
from blamelogic.proofs import BUNDLED_NAMES, bundled_script, dump_proof

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
CONSOLE_SCRIPT = "blamelogic.cli:run"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_true_at_play(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "check", "--game", str(lopez_file), "--play", "2",
            "--formula", "B{lopez} dead",
        )
        assert (code, out, err) == (0, "true\n", "")

    def test_false_at_play(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "check", "--game", str(lopez_file), "--play", "0",
            "--formula", "B{lopez} dead",
        )
        assert (code, out, err) == (1, "false\n", "")

    def test_play_out_of_range(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "check", "--game", str(lopez_file), "--play", "9",
            "--formula", "dead",
        )
        assert code == 2
        assert out == ""
        assert "play index 9 out of range" in err

    def test_parse_error(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "check", "--game", str(lopez_file), "--play", "0",
            "--formula", "dead ->",
        )
        assert code == 2
        assert err.startswith("error: at offset")

    def test_missing_game_file(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "check", "--game", str(tmp_path / "nope.json"), "--play", "0",
            "--formula", "p",
        )
        assert code == 2
        assert err.startswith("error: ")

    def test_invalid_game_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"agents": ["a", "a"], "actions": ["x"], "outcomes": ["w"], '
                       '"plays": [], "valuation": {}}')
        code, out, err = run(
            capsys, "check", "--game", str(bad), "--play", "0", "--formula", "p"
        )
        assert code == 2
        assert "duplicate agent" in err

    def test_strategy_space_over_cap_is_an_input_error(self, capsys, tmp_path):
        agents = [f"a{k}" for k in range(21)]
        doc = {
            "agents": agents, "actions": ["x", "y"], "outcomes": ["w"],
            "plays": [{"profile": dict.fromkeys(agents, "x"), "outcome": "w"}],
            "valuation": {"p": [0]},
        }  # fmt: skip
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "check", "--game", str(path), "--play", "0",
            "--formula", "B{" + ",".join(agents) + "} p",
        )
        coalition = "{" + ",".join(sorted(agents)) + "}"
        assert (code, out) == (2, "")
        assert err == (
            f"error: strategy space for coalition {coalition} has 2097152 elements,"
            " over the cap 1048576\n"
        )


class TestValid:
    def test_ok(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "valid", "--game", str(lopez_file),
            "--formula", "B{lopez} dead -> dead",
        )
        assert (code, out, err) == (0, "ok\n", "")

    def test_least_counterexample(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "valid", "--game", str(lopez_file), "--formula", "dead"
        )
        assert (code, out, err) == (1, "counterexample: play 0\n", "")


class TestBlame:
    def test_report_payload(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "blame", "--game", str(lopez_file), "--play", "2",
            "--formula", "dead", "--max-size", "1",
        )
        assert code == 0
        assert err == ""
        assert json.loads(out) == {
            "play": 2,
            "formula": "dead",
            "max_size": 1,
            "blamable": [
                {"coalition": ["lopez"], "witness": {"lopez": "hide"}, "minimal": True}
            ],
        }

    def test_empty_report_exits_one(self, capsys, lopez_file):
        code, out, err = run(
            capsys, "blame", "--game", str(lopez_file), "--play", "0",
            "--formula", "dead",
        )
        assert code == 1
        assert json.loads(out)["blamable"] == []

    def test_too_many_coalitions_is_an_input_error(self, capsys, tmp_path):
        agents = [f"g{k}" for k in range(40)]
        doc = {
            "agents": agents, "actions": ["x", "y"], "outcomes": ["w", "v"],
            "plays": [{"profile": dict.fromkeys(agents, x), "outcome": o}
                      for x, o in (("x", "w"), ("y", "v"))],
            "valuation": {"p": [0]},
        }  # fmt: skip
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        t0 = time.perf_counter()
        code, out, err = run(
            capsys, "blame", "--game", str(path), "--play", "0",
            "--formula", "p", "--max-size", "10",
        )
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "coalitions" in err


class TestProof:
    def test_bundled_ok(self, capsys):
        code, out, err = run(capsys, "proof", "--bundled", "lemma1")
        assert (code, out, err) == (0, "ok\n", "")

    @pytest.mark.parametrize("name", BUNDLED_NAMES)
    def test_every_bundled_name(self, capsys, name):
        code, out, _ = run(capsys, "proof", "--bundled", name)
        assert (code, out) == (0, "ok\n")

    def test_unknown_bundled(self, capsys):
        code, out, err = run(capsys, "proof", "--bundled", "lemma99")
        assert code == 2
        assert "no bundled script" in err
        assert "lemma1" in err  # the known names are listed

    def test_file_and_bundled_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_bytes(dump_proof(bundled_script("lemma1")))
        code, _, err = run(capsys, "proof", str(path), "--bundled", "lemma1")
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(capsys, "proof")
        assert code == 2

    def test_file_script(self, capsys, tmp_path):
        path = tmp_path / "l4.json"
        path.write_bytes(dump_proof(bundled_script("lemma4")))
        code, out, err = run(capsys, "proof", str(path))
        assert (code, out, err) == (0, "ok\n", "")

    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "proof", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: not UTF-8: ")

    def test_failing_script_prints_line_and_reason(self, capsys, tmp_path):
        doc = {
            "hypotheses": ["p"],
            "claim": "N p",
            "lines": [
                {"formula": "p", "just": {"kind": "hyp", "from": [1]}},
                {"formula": "N p", "just": {"kind": "nec", "from": [1]}},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "proof", str(path))
        assert (code, err) == (1, "")
        assert out == "line 2: necessitation under hypothesis\n"

    def test_atom_cap_is_an_input_error(self, capsys, tmp_path):
        wide = " | ".join(f"x{i}" for i in range(21)) + " | !x0"
        doc = {"hypotheses": [], "claim": wide, "lines": [{"formula": wide, "just": {"kind": "taut"}}]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "proof", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 1: atom-count overflow: 21 distinct atoms, limit 20\n"

    def test_malformed_script(self, capsys, tmp_path):
        path = tmp_path / "nojson.json"
        path.write_text("{]")
        code, _, err = run(capsys, "proof", str(path))
        assert code == 2
        assert err.startswith("error: bad JSON")

    @pytest.mark.parametrize(
        "top, line, just, message",
        [
            ({}, {}, {"kind": "axiom", "name": []}, "line 1: just name must be a string"),
            ({}, {}, {"kind": ["taut"]}, "line 1: just must be an object with a string kind"),
            ({"note": 1}, {}, {"kind": "taut"}, "script: unknown keys ['note']"),
            ({}, {"why": "x"}, {"kind": "taut"}, "line 1: unknown keys ['why']"),
            ({}, {}, {"kind": "taut", "refs": [1]}, "line 1 just: unknown keys ['refs']"),
        ],
        ids=["name-not-string", "kind-not-string", "script-key", "line-key", "just-key"],
    )
    def test_misshapen_script(self, capsys, tmp_path, top, line, just, message):
        doc = {"hypotheses": [], "claim": "p | !p", **top}
        doc["lines"] = [{"formula": "p | !p", "just": just, **line}]
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "proof", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestFuzz:
    def test_small_sweep(self, capsys):
        code, out, err = run(
            capsys, "fuzz", "--seed", "3", "--games", "5", "--instances", "2"
        )
        assert code == 0
        assert err == ""
        report = json.loads(out)
        assert report["seed"] == 3
        assert report["games"] == 5
        assert report["instances_per_schema"] == 2
        assert report["failures"] == []

    def test_prints_the_sweep_report(self, capsys):
        report = soundness_sweep(GenParams(7, **SWEEP_SHAPE), 2, 20)
        expected = json.dumps(report, indent=2) + "\n"
        assert run(capsys, "fuzz", "--seed", "7", "--games", "2") == (0, expected, "")

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "fuzz", "--seed", "11", "--games", "3")
        _, second, _ = run(capsys, "fuzz", "--seed", "11", "--games", "3")
        assert first == second

    def test_the_sweep_workload_runs_what_fuzz_runs(self):
        # The benchmark's sweep workload states its own copy of the shape and
        # the instance count; both must stay those of `fuzz`.
        source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
        values = {
            node.targets[0].id: node.value
            for node in ast.parse(source).body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        shape = values["SWEEP_SHAPE"]
        assert isinstance(shape, ast.Call) and shape.func.id == "dict" and not shape.args
        assert {k.arg: ast.literal_eval(k.value) for k in shape.keywords} == SWEEP_SHAPE
        handler, arguments = blamelogic.cli._read(["fuzz", "--seed", "0", "--games", "0"])
        assert handler is blamelogic.cli._cmd_fuzz
        assert ast.literal_eval(values["SWEEP_INSTANCES"]) == arguments["instances"] == 20

    @pytest.mark.parametrize("flag", ["--games", "--instances"])
    def test_negative_count_is_an_input_error(self, capsys, flag):
        argv = ["fuzz", "--seed", "1", "--games", "1", "--instances", "1"]
        argv[argv.index(flag) + 1] = "-1"
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "must not be negative" in err


class TestFmt:
    def test_canonicalizes(self, capsys):
        code, out, err = run(capsys, "fmt", "--formula", "((p)) -> (q & (r))")
        assert (code, out, err) == (0, "p -> q & r\n", "")

    def test_rejects_garbage(self, capsys):
        code, out, err = run(capsys, "fmt", "--formula", "p <-> q <-> r")
        assert code == 2
        assert out == ""


def test_deep_nesting_is_an_input_error(capsys, lopez_file):
    deep = "(" * 200 + "dead" + ")" * 200
    for argv in (
        ["fmt", "--formula", deep],
        ["check", "--game", str(lopez_file), "--play", "0", "--formula", deep],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


def test_long_chain_that_overflows_the_printer_is_an_input_error(capsys):
    # The parser builds a 1,200-conjunct chain without recursion; printing it recurses.
    code, out, err = run(capsys, "fmt", "--formula", " & ".join(["p"] * 1200))
    assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


def test_a_long_implication_chain_that_overflows_the_printer_or_the_fold_is_an_input_error(
    capsys, lopez_file
):
    # The parser reads the 5,000 arrows in a loop; printing and folding them recurse.
    chain = "dead -> " * 5000 + "dead"
    for argv in (
        ["fmt", "--formula", chain],
        ["check", "--game", str(lopez_file), "--play", "0", "--formula", chain],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


def test_a_long_run_of_prefixes_that_overflows_the_printer_or_the_fold_is_an_input_error(
    capsys, lopez_file
):
    # The parser reads the 2,000 heads in a loop; printing and folding them recurse.
    deep = "!" * 2000 + "dead"
    for argv in (
        ["fmt", "--formula", deep],
        ["check", "--game", str(lopez_file), "--play", "0", "--formula", deep],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


def test_deep_proof_line_is_an_input_error(capsys, tmp_path):
    deep = "(" * 200 + "p" + ")" * 200
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"hypotheses": [], "claim": "p", "lines": [
        {"formula": "p | !p", "just": {"kind": "taut"}},
        {"formula": deep, "just": {"kind": "taut"}},
    ]}))  # fmt: skip
    code, out, err = run(capsys, "proof", str(path))
    assert (code, out, err) == (2, "", "error: line 2: formula nested too deeply\n")


def _hyp_script(tmp_path, hypothesis, line):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"hypotheses": [hypothesis], "claim": hypothesis, "lines": [
        {"formula": line, "just": {"kind": "hyp", "from": [1]}},
    ]}))  # fmt: skip
    return str(path)


@pytest.mark.parametrize("n", [400, 2000])
def test_long_chain_proof_checks(capsys, tmp_path, n):
    # The hypothesis, the line and the claim parse to one object, so no comparison recurses.
    chain = " & ".join(["p", "q"] * (n // 2))
    code, out, err = run(capsys, "proof", _hyp_script(tmp_path, chain, chain))
    assert (code, out, err) == (0, "ok\n", "")


def test_long_chain_mismatch_is_an_input_error(capsys, tmp_path):
    # Two chains that differ at their first conjunct share no node: comparing them recurses.
    chain = " & ".join(["p", "q"] * 1000)
    code, out, err = run(capsys, "proof", _hyp_script(tmp_path, chain, "q" + chain[1:]))
    assert (code, out, err) == (2, "", "error: formula nested too deeply\n")


def test_deeply_nested_document_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for argv in (["proof", str(path)], ["valid", "--game", str(path), "--formula", "p"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: document nested too deeply\n")


def test_module_runs_as_script():
    src = str(Path(blamelogic.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "blamelogic.cli", "fmt", "--formula", "((p))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "p\n", "")


def subcommand_argvs(game):
    """One argv for each subcommand, and one usage error."""
    return [
        ["check", "--game", str(game), "--play", "2", "--formula", "B{lopez} dead"],
        ["valid", "--game", str(game), "--formula", "dead"],
        ["blame", "--game", str(game), "--play", "2", "--formula", "dead"],
        ["proof", "--bundled", "lemma1"],
        ["fuzz", "--seed", "1", "--games", "2", "--instances", "2"],
        ["fmt", "--formula", "((p))"],
        ["check", "--game", str(game)],
    ]


# Runs run() as the console script does, after taking the path of a file for
# an atexit hook from the first argument.  The hook runs once run() has called
# sys.exit, before the interpreter's last collections, and writes whether run
# froze the collector.
RUN_WITH_HOOK = (
    "import atexit, gc, pathlib, sys\n"
    "flag = pathlib.Path(sys.argv.pop(1))\n"
    "atexit.register(lambda: flag.write_text(str(gc.get_freeze_count() > 0)))\n"
    "from blamelogic.cli import run\n"
    "run()\n"
)


def test_run_in_a_child_gives_what_main_gives(capsys, lopez_file, tmp_path):
    # 10 agents who all play x or all play y, with p at the first play:
    # every one of the 1,023 coalitions is blamable, and the report is far
    # bigger than a pipe buffer, so all of it must be flushed after the freeze.
    agents = [f"a{i}" for i in range(10)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "agents": agents, "actions": ["x", "y"], "outcomes": ["o"],
        "plays": [{"profile": dict.fromkeys(agents, v), "outcome": "o"} for v in "xy"],
        "valuation": {"p": [0]},
    }))
    big_blame = ["blame", "--game", str(big), "--play", "0", "--formula", "p"]
    src = str(Path(blamelogic.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for i, argv in enumerate([*subcommand_argvs(lopez_file), big_blame]):
        flag = tmp_path / f"frozen{i}"
        child = subprocess.run(
            [sys.executable, "-c", RUN_WITH_HOOK, str(flag), *argv],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=60,
        )
        code, out, err = run(capsys, *argv)
        in_process = (code, out.encode(), err.encode())
        assert (child.returncode, child.stdout, child.stderr) == in_process, argv
        assert flag.read_text() == "True", argv
    assert code == 0 and len(out) > 200_000 and out.count('"coalition"') == 1023


def test_main_leaves_the_collector_alone(capsys, lopez_file):
    # Only run() freezes: an in-process caller of main keeps a normal collector.
    for argv in subcommand_argvs(lopez_file):
        before = (gc.isenabled(), gc.get_freeze_count())
        main(argv)
        capsys.readouterr()
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv


@pytest.mark.skipif(not README.is_file(), reason="no README.md beside tests/")
def test_readme_blame_transcript_is_what_blame_prints(capsys, lopez_file):
    blocks = README.read_text().split("```")[1::2]
    [block] = [b for b in blocks if b.startswith("\n$ blamelogic blame ")]
    command, printed = block[1:].split("\n", 1)
    argv = [str(lopez_file) if a == "lopez.json" else a for a in shlex.split(command)[2:]]
    assert run(capsys, *argv) == (0, printed, "")


class TestHarnessGlue:
    def test_usage_error_is_exit_two(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["check", "--game", "x"]) == 2
        capsys.readouterr()

    def test_version(self, capsys):
        code = main(["--version"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("blamelogic ")


def _installed_distribution():
    try:
        return importlib.metadata.distribution("blamelogic")
    except importlib.metadata.PackageNotFoundError:
        return None


@pytest.mark.skipif(not PYPROJECT.is_file(), reason="no pyproject.toml beside tests/")
def test_console_script_is_registered():
    # Checks the declaration this checkout holds, so it passes from source
    # (src on PYTHONPATH) as well as from an install.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh).get("project", {}).get("scripts")
    assert scripts == {"blamelogic": CONSOLE_SCRIPT}
    ep = importlib.metadata.EntryPoint(
        name="blamelogic", value=scripts["blamelogic"], group="console_scripts"
    )
    assert ep.load() is blamelogic.cli.run


@pytest.mark.skipif(
    _installed_distribution() is None, reason="no installed blamelogic distribution"
)
def test_installed_console_script_matches_declaration():
    # A stale install or a packaging mistake shows here wherever the package
    # is installed; the value is the one test_console_script_is_registered
    # holds pyproject.toml to.
    eps = _installed_distribution().entry_points
    ours = eps.select(group="console_scripts", name="blamelogic")
    assert [ep.value for ep in ours] == [CONSOLE_SCRIPT]
