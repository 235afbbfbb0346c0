"""The four workloads: inputs from the seed, the timed call, the untimed check.

Each workload hands run.py an endless sequence of rounds.  A round is
a list of requests with a fixed mix of shapes; only the random content
changes with the seed, so every seed and every run of whole rounds sees
the same mix.  `call` is the timed request and goes through the package's
public API only; `check` compares its answer with an expected one made
without the code under test (see reference.py) and runs outside the
timing.  Spans and counters go to the tracer passed in, which records
nothing when tracing is off.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from blamelogic import (
    GenParams,
    blamable_coalitions,
    check_proof,
    evaluate_all,
    format_formula,
    is_tautology,
    load,
    load_proof,
    parse,
    satisfies,
    save,
    soundness_sweep,
)

import reference as ref
from clock import Calibrated

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "blamelogic" / "data"
PROOF_FILES = sorted((DATA / "proofs").glob("*.json"))

SCHEMA_NAMES = (
    "BlameForCause",
    "Distributivity",
    "Fairness",
    "JointResponsibility",
    "Monotonicity",
    "NegativeIntrospection",
    "NoneToBlame",
    "TruthB",
    "TruthN",
)

# The acceptance-sweep shape.
SWEEP_SHAPE = dict(n_agents=4, n_actions=4, n_outcomes=4, n_plays=16, n_props=4, formula_depth=4)
SWEEP_INSTANCES = 20


class Sweep:
    """One `soundness_sweep(params, 1, 20)` per request, on a fresh game each time.

    Games are never repeated: per-game cost varies about twofold, and a
    run's median settles only over a few hundred different games.
    """

    name = "sweep"
    setup_code = "import blamelogic"

    def __init__(self, seed: int, evaluate_all_fn=None) -> None:
        self._rng = random.Random(seed)
        self._evaluate = evaluate_all_fn  # None means the package default

    def rounds(self):
        while True:
            yield [self._rng.getrandbits(63)]

    def call(self, game_seed: int, tr):
        params = GenParams(seed=game_seed, **SWEEP_SHAPE)
        if not tr.enabled:
            return soundness_sweep(params, 1, SWEEP_INSTANCES, evaluate_all_fn=self._evaluate)
        inner = self._evaluate or evaluate_all

        def traced_evaluate(game, formula):
            with tr.span("checker.evaluate_all"):
                table = inner(game, formula)
            tr.formulas.append(formula)
            return table

        with tr.span("generate.soundness_sweep"):
            return soundness_sweep(params, 1, SWEEP_INSTANCES, evaluate_all_fn=traced_evaluate)

    def check(self, game_seed: int, report: dict, tr) -> bool:
        totals = report["schema_totals"]
        tr.count("generate.instances", sum(totals.values()))
        return (
            report["seed"] == game_seed
            and report["games"] == 1
            and report["failures"] == []
            and totals == {name: SWEEP_INSTANCES for name in SCHEMA_NAMES}
            and report["extra_totals"]["empty_coalition"] == 3
        )


# Each slot: agents, actions, plays, and at how many plays p holds.  "one":
# every coalition is blamable and exactly the singletons are minimal, so
# the cost depends on the size alone; "few" (2-3 plays): nearly every
# coalition blamable; "many" (nine plays in ten): fewer blamable and ten
# times as many of them minimal, so the pairwise minimality pass does the
# most work per coalition.  Cost roughly doubles per agent, so small games
# outnumber large ones and a round stays under a second.  The largest
# games hold p at one play, so their cost, most of a round's, does not
# swing with the seed.  With 15 slots the median falls in the middle of
# one slot, and the 90th percentile among three 10-agent slots of about
# the same cost, which keeps both steady from run to run.
BLAME_PLAN = (
    (6, 2, 64, "many"), (6, 3, 128, "few"), (6, 3, 64, "many"),
    (7, 2, 128, "many"), (7, 3, 32, "few"), (7, 2, 64, "few"),
    (8, 3, 128, "few"), (8, 2, 32, "many"), (8, 2, 64, "few"),
    (9, 2, 128, "few"), (8, 3, 64, "many"),
    (10, 3, 32, "one"), (10, 2, 64, "one"), (10, 3, 64, "one"),
    (12, 2, 64, "one"),
)  # fmt: skip
BLAME_POOL_ROUNDS = 3
# All equivalent to p, already in canonical form.
BLAME_FORMULAS = ("p", "p & true", "!!p", "p | false", "p & (q | !q)")


def game_document(rng: random.Random, agents: int, actions: int, plays: int, kind: str):
    """A game in save()'s canonical layout, its bytes, and a play where p holds."""
    names = [f"ag{i}" for i in range(agents)]
    acts = [f"x{i}" for i in range(actions)]
    outs = ["o0", "o1", "o2"]
    codes = sorted(rng.sample(range(actions**agents * len(outs)), plays))
    rows = []
    for code in codes:
        code, out = divmod(code, len(outs))
        digits = []
        for _ in names:
            code, d = divmod(code, actions)
            digits.append(acts[d])
        rows.append({"profile": dict(zip(names, digits)), "outcome": outs[out]})
    if kind == "one":
        p = [rng.randrange(plays)]
    elif kind == "few":
        p = sorted(rng.sample(range(plays), rng.randint(2, 3)))
    else:
        p = sorted(set(i for i in range(plays) if rng.random() < 0.9) | {0})
    q = [i for i in range(plays) if rng.random() < 0.5]
    doc = {"agents": names, "actions": acts, "outcomes": outs, "plays": rows,
           "valuation": {"p": p, "q": q}}  # fmt: skip
    data = (json.dumps(doc, indent=2) + "\n").encode()
    return doc, data, rng.choice(p)


class BlameRequest:
    __slots__ = ("data", "text", "play", "expected", "tried")


def blame_request(rng: random.Random, agents: int, actions: int, plays: int, kind: str):
    doc, data, play = game_document(rng, agents, actions, plays, kind)
    req = BlameRequest()
    req.data, req.text, req.play = data, rng.choice(BLAME_FORMULAS), play
    game, formula = load(data), parse(req.text)
    child = tuple(satisfies(game, i, formula) for i in range(plays))
    req.expected = ref.blame_report(doc, play, req.text, child)
    req.tried = (1 << agents) - 1 if child[play] else 0  # every non-empty coalition
    return req


class Blame:
    """What `blamelogic blame` does, in-process: load, parse, search, serialise."""

    name = "blame"
    setup_code = "import blamelogic"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._pool = []
        for _ in range(BLAME_POOL_ROUNDS):
            batch = [blame_request(rng, *slot) for slot in BLAME_PLAN]
            rng.shuffle(batch)
            self._pool.append(batch)

    def rounds(self):
        while True:
            yield from self._pool

    def call(self, req: BlameRequest, tr):
        with tr.span("game.load"):
            game = load(req.data)
        with tr.span("parser.parse"):
            formula = parse(req.text)
        with tr.span("checker.blamable_coalitions"):
            report = blamable_coalitions(game, req.play, formula, None)
        with tr.span("checker.report_json"):
            payload = json.dumps(report.as_dict(), indent=2)
        if tr.enabled:
            tr.formulas.append(formula)
            tr.count("parser.parse.chars", len(req.text))
        return game, payload

    def check(self, req: BlameRequest, out, tr) -> bool:
        game, payload = out
        answer = json.loads(payload)
        with tr.span("game.save"):
            saved = save(game)
        entries = answer["blamable"]
        tr.count("checker.coalitions_tried", req.tried)
        tr.count("checker.coalitions_blamable", len(entries))
        tr.count("checker.coalitions_minimal", sum(e["minimal"] for e in entries))
        return answer == req.expected and saved == req.data


LOPEZ_DOC = json.loads((DATA / "lopez.json").read_bytes())
DEAD = ("prop", "dead")
# Literals over the bundled lopez game: true at play 2 (where lopez is
# blamable for dead), and ones false there.
TRUE_AT_2 = (
    DEAD,
    ("poss", DEAD),
    ("blame", ("lopez",), DEAD),
    ("top",),
    ("not", ("nec", DEAD)),
    ("or", DEAD, ("not", DEAD)),
    ("not", ("blame", (), DEAD)),
    ("imp", ("prop", "alive"), ("nec", DEAD)),
)
FALSE_AT_2 = (("not", DEAD), ("nec", DEAD), ("bot",), ("blame", ("lopez",), ("not", DEAD)))
CHAIN_SIZES = (50, 100, 200, 400)
TAUTOLOGY_ATOMS = (8, 10, 12, 14, 16)
TEXT_POOL_ROUNDS = 4


def chain(rng: random.Random, size: int) -> tuple:
    """An &-chain of the TRUE_AT_2 literals in equal shares, shuffled.

    Half of the chains have one conjunct swapped for one false at play 2.
    Fixed shares keep the cost of a chain of a given size nearly the same
    across seeds.
    """
    items = [TRUE_AT_2[i % len(TRUE_AT_2)] for i in range(size)]
    rng.shuffle(items)
    if rng.random() < 0.5:
        items[rng.randrange(size)] = rng.choice(FALSE_AT_2)
    return ("and", items)


def prefix_nest(rng: random.Random) -> tuple:
    """N, !, <N>, B{lopez} and B{} prefixes, 101 formula nodes deep, shuffled."""
    ops = ["not", "nec", "blame", "blame_empty"] * 20 + ["poss"] * 7  # <N> is 3 nodes
    rng.shuffle(ops)
    t = rng.choice(TRUE_AT_2 + FALSE_AT_2)
    for op in ops:
        if op == "blame":
            t = ("blame", ("lopez",), t)
        elif op == "blame_empty":
            t = ("blame", (), t)
        else:
            t = (op, t)
    return t


def tautology(rng: random.Random, atoms: int, valid: bool) -> tuple:
    """A formula over exactly `atoms` atoms whose validity is known by construction.

    With R any formula and X a satisfiable conjunction of literals over
    a0..a(k-2), and y = a(k-1) occurring nowhere else:
    (R & X) -> (R | y) is valid; (R | X) -> y is not (make X true, y false).
    """
    names = [f"a{i}" for i in range(atoms - 1)]

    def lit(name):
        return ("not", ("prop", name)) if rng.random() < 0.5 else ("prop", name)

    items = [lit(n) for n in rng.sample(names, len(names))]
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        op = rng.choice(("and", "or", "imp", "iff"))
        a, b = items[i], items[i + 1]
        items[i : i + 2] = [("and", [a, b]) if op == "and" else (op, a, b)]
    r = items[0]
    x = ("and", [lit(n) for n in names])
    y = ("prop", f"a{atoms - 1}")
    if valid:
        return ("imp", ("and", [r, x]), ("or", r, y))
    return ("imp", ("or", r, x), y)


def round_trip(game, text: str, tr):
    """parse -> format_formula -> parse -> evaluate_all, as one request."""
    with tr.span("parser.parse"):
        formula = parse(text)
    with tr.span("parser.format"):
        canonical = format_formula(formula)
    with tr.span("parser.parse"):
        again = parse(canonical)
    with tr.span("checker.evaluate_all"):
        table = evaluate_all(game, again)
    if tr.enabled:
        tr.formulas.append(formula)
        tr.count("parser.parse.chars", len(text) + len(canonical))
    return formula, again, table.truth


def round_trip_ok(out, expected) -> bool:
    """The re-parse is structurally the parsed formula, and the truth vector is right."""
    formula, again, vector = out
    _, _, keys = ref.structure([formula, again])
    return keys[0] == keys[1] and vector == expected


class Text:
    """Proof scripts, long and deep formulas, and tautology checks, in one mix.

    Requests: ("proof", bytes), ("formula", text, expected truth vector),
    ("taut", parsed formula, expected verdict, atom count).
    """

    name = "text"
    setup_code = (
        "import blamelogic\n"
        "from importlib import resources\n"
        "data = resources.files('blamelogic').joinpath('data')\n"
        "scripts = [p.read_bytes() for p in data.joinpath('proofs').iterdir()]\n"
        "game = blamelogic.load(data.joinpath('lopez.json').read_bytes())"
    )

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.game = load((DATA / "lopez.json").read_bytes())
        scripts = [("proof", path.read_bytes()) for path in PROOF_FILES]
        self._pool = []
        for _ in range(TEXT_POOL_ROUNDS):
            trees = [chain(rng, n) for n in CHAIN_SIZES]
            trees += [prefix_nest(rng), prefix_nest(rng)]
            batch = list(scripts)
            batch += [("formula", ref.render(t), ref.truth(LOPEZ_DOC, t)) for t in trees]
            for atoms in TAUTOLOGY_ATOMS:
                for valid in (True, False):
                    formula = parse(ref.render(tautology(rng, atoms, valid)))
                    batch.append(("taut", formula, valid, atoms))
            rng.shuffle(batch)
            self._pool.append(batch)

    def rounds(self):
        while True:
            yield from self._pool

    def call(self, req: tuple, tr):
        kind = req[0]
        if kind == "proof":
            with tr.span("proofs.load_proof"):
                proof = load_proof(req[1])
            with tr.span("proofs.check_proof"):
                failure = check_proof(proof)
            if tr.enabled:
                tr.formulas.extend((proof.claim, *proof.hypotheses))
                tr.formulas.extend(line.formula for line in proof.lines)
            return failure
        if kind == "formula":
            return round_trip(self.game, req[1], tr)
        with tr.span("proofs.is_tautology"):
            verdict = is_tautology(req[1])
        if tr.enabled:
            tr.formulas.append(req[1])
            tr.count("proofs.tautology_atoms", req[3])
        return verdict

    def check(self, req: tuple, out, tr) -> bool:
        kind = req[0]
        if kind == "proof":
            return out is None
        if kind == "formula":
            return round_trip_ok(out, req[2])
        return out is req[2]


# Literals whose rendering is already canonical, so the echo in a blame
# report is known without the package's printer.
CLI_LITERALS = (
    DEAD,
    ("not", DEAD),
    ("nec", DEAD),
    ("poss", DEAD),
    ("blame", ("lopez",), DEAD),
    ("not", ("blame", ("lopez",), DEAD)),
    ("nec", ("not", ("prop", "alive"))),
    ("top",),
)
# (input, canonical output) for `fmt`.
FMT_CASES = (
    ("!N !!dead", "<N> !dead"),
    ("((dead))", "dead"),
    ("dead&(alive|dead)", "dead & (alive | dead)"),
    ("(a -> b) -> c", "(a -> b) -> c"),
    ("a -> (b -> c)", "a -> b -> c"),
    ("B{b,a,a} (p)", "B{a,b} p"),
    ("!(p & q)", "!(p & q)"),
    ("(p <-> q) <-> r", "(p <-> q) <-> r"),
    ("p | (q & r)", "p | q & r"),
    ("(p | q) & r", "(p | q) & r"),
    ("N<N>  p", "N <N> p"),
    ("(!N (!p))", "<N> p"),
    ("B{}(p->q)", "B{} (p -> q)"),
    ("true|false", "true | false"),
)
CLI_CODE = "from blamelogic.cli import run; run()"
CLI_GAME = "src/blamelogic/data/lopez.json"
CLI_POOL_ROUNDS = 8
CLI_TIMEOUT_S = 60


def package_env() -> dict:
    """The environment for child interpreters: the package from the checkout's src.

    Children may write bytecode caches, as an installed package has them,
    so that start-up times do not include compiling the package.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Cli:
    """One CLI subprocess per request, cycling through the six subcommands.

    Requests are (argv, expected exit code, expected stdout) where the
    expected stdout is text, or a dict for the JSON payloads of blame
    (the full report) and fuzz (fields that must match).
    """

    name = "cli"
    setup_code = "import blamelogic.cli"

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._env = package_env()
        self.peak_child_kb = 0
        self._pool = [self._round(rng) for _ in range(CLI_POOL_ROUNDS)]

    def _round(self, rng: random.Random) -> list:
        def formula():
            t = ("and", [rng.choice(CLI_LITERALS) for _ in range(rng.randint(1, 3))])
            return t, ref.render(t)

        batch = []
        t, text = formula()
        play = rng.randrange(3)
        value = ref.truth(LOPEZ_DOC, t)[play]
        argv = ["check", "--game", CLI_GAME, "--play", str(play), "--formula", text]
        batch.append((argv, 0 if value else 1, "true\n" if value else "false\n"))

        t, text = formula()
        vector = ref.truth(LOPEZ_DOC, t)
        failing = [i for i, v in enumerate(vector) if not v]
        stdout = f"counterexample: play {failing[0]}\n" if failing else "ok\n"
        batch.append((["valid", "--game", CLI_GAME, "--formula", text], 1 if failing else 0, stdout))

        t, text = formula()
        play = rng.randrange(3)
        report = ref.blame_report(LOPEZ_DOC, play, text, ref.truth(LOPEZ_DOC, t))
        argv = ["blame", "--game", CLI_GAME, "--play", str(play), "--formula", text]
        batch.append((argv, 0 if report["blamable"] else 1, report))

        batch.append((["proof", "--bundled", rng.choice(PROOF_FILES).stem], 0, "ok\n"))
        source, canonical = rng.choice(FMT_CASES)
        batch.append((["fmt", "--formula", source], 0, canonical + "\n"))
        seed = rng.getrandbits(31)
        expected = {"seed": seed, "games": 1, "instances_per_schema": 1, "failures": [],
                    "schema_totals": {name: 1 for name in SCHEMA_NAMES}}  # fmt: skip
        argv = ["fuzz", "--seed", str(seed), "--games", "1", "--instances", "1"]
        batch.append((argv, 0, expected))
        rng.shuffle(batch)
        return batch

    def rounds(self):
        while True:
            yield from self._pool

    def call(self, req: tuple, tr):
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_CODE, *req[0]],
            cwd=ROOT,
            env=self._env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            stdout = proc.stdout.read()
        finally:
            timer.cancel()
            proc.stdout.close()
            # wait4 rather than wait: it also gives this child's peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode, stdout.decode()

    def check(self, req: tuple, out, tr) -> bool:
        _, code, expected = req
        returncode, stdout = out
        if returncode != code:
            return False
        if isinstance(expected, str):
            return stdout == expected
        answer = json.loads(stdout)
        if expected.get("blamable") is not None:
            return answer == expected
        return all(answer[k] == v for k, v in expected.items())


WORKLOADS = {w.name: w for w in (Sweep, Blame, Text, Cli)}


def setup_seconds(code: str, repeats: int) -> float:
    """Median time of `code` inside fresh interpreters, at the reference speed.

    One untimed interpreter runs first, to write the bytecode caches.
    """
    script = f"import time\nt0 = time.perf_counter()\n{code}\nprint(repr(time.perf_counter() - t0))"
    env = package_env()

    def once() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
        )  # fmt: skip
        return float(proc.stdout)

    once()
    clock = Calibrated()
    times = []
    for _ in range(repeats):
        inside = clock.measure(once)
        times.append(inside * clock.factor)
    return statistics.median(times)


def start_seconds(code: str, repeats: int) -> float:
    """Median wall time of fresh interpreters running `code`, start-up included,
    at the reference speed."""
    env = package_env()
    clock = Calibrated()
    times = []
    for _ in range(repeats):
        clock.measure(lambda: subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S, check=True,
        ))  # fmt: skip
        times.append(clock.scaled)
    return statistics.median(times)
