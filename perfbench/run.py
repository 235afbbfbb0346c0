"""Closed-loop benchmark of blamelogic, one workload per invocation.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

One client sends each request only after the previous one returned.  With
--trace 0 the run measures the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it measures half the time untraced and half traced, and
reports the per-layer metrics, the tracing overhead and the fixed-size
series.  The package is imported from src/ of the checkout this file sits
in.  Every answer is checked outside the timed region.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REFERENCE_SPIN_S, Calibrated
from reference import structure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MAX_ERRORS_SHOWN = 5


class Phase:
    """Outcome of one closed-loop stretch of requests."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # rescaled to the reference speed
        self.raw: list[float] = []
        self.attempted = 0
        self.correct = 0
        self.rounds = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return self.attempted - self.correct

    def ops_per_s(self) -> float:
        return self.correct / sum(self.latencies)

    def raw_ops_per_s(self) -> float:
        return self.correct / sum(self.raw)


def run_phase(wl, rounds, seconds: float, tr) -> Phase:
    """Whole rounds until `seconds` of wall time have passed."""
    phase = Phase()
    clock = Calibrated()
    deadline = time.perf_counter() + seconds
    for batch in rounds:
        for req in batch:
            tr.request_id += 1
            phase.attempted += 1
            error = None

            def request():
                with tr.span("request"):
                    return wl.call(req, tr)

            try:
                out = clock.measure(request)
            except Exception as e:  # a failing request is counted, not fatal
                error = e
            phase.latencies.append(clock.scaled)
            phase.raw.append(clock.raw)
            ok = False
            if error is None:
                try:
                    ok = wl.check(req, out, tr)
                except Exception as e:  # malformed answer
                    error = e
            if ok:
                phase.correct += 1
            elif len(phase.errors) < MAX_ERRORS_SHOWN:
                phase.errors.append(f"request {tr.request_id}: {error!r}" if error else
                                    f"request {tr.request_id}: wrong answer")  # fmt: skip
            if tr.enabled:
                nodes, distinct, _ = structure(tr.formulas)
                tr.count("formula.nodes", nodes)
                tr.count("formula.distinct_nodes", distinct)
                tr.formulas.clear()
        phase.rounds += 1
        if time.perf_counter() >= deadline:
            return phase
    return phase


def end_to_end(wl, phase: Phase, setup_s: float) -> dict[str, float]:
    lat_ms = [x * 1e3 for x in phase.latencies]
    peak_kb = getattr(wl, "peak_child_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": phase.ops_per_s(),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "correct_ratio": phase.correct / phase.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer(plain: Phase, traced: Phase, tracer) -> dict[str, float]:
    n = traced.attempted
    spans = tracer.self_times()
    c = tracer.counts
    # Span times are rescaled by the traced phase's mean speed factor.
    factor = sum(traced.latencies) / sum(traced.raw)

    def calls(name):
        return spans.get(name, (0, 0.0))[0] / n

    def self_ms(name):
        return spans.get(name, (0, 0.0))[1] * factor * 1e3 / n

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "parser.parse.calls": calls("parser.parse"),
        "parser.parse.self_ms": self_ms("parser.parse"),
        "parser.parse.chars_per_s": ratio(c["parser.parse.chars"], self_ms("parser.parse") * n / 1e3),
        "parser.format.self_ms": self_ms("parser.format"),
        "formula.nodes": c["formula.nodes"] / n,
        "formula.distinct_nodes": c["formula.distinct_nodes"] / n,
        "formula.distinct_ratio": ratio(c["formula.distinct_nodes"], c["formula.nodes"]),
        "game.load.calls": calls("game.load"),
        "game.load.self_ms": self_ms("game.load"),
        "game.save.self_ms": self_ms("game.save"),
        "checker.evaluate_all.calls": calls("checker.evaluate_all"),
        "checker.evaluate_all.self_ms": self_ms("checker.evaluate_all"),
        "checker.blamable_coalitions.self_ms": self_ms("checker.blamable_coalitions"),
        "checker.coalitions_tried": c["checker.coalitions_tried"] / n,
        "checker.coalitions_blamable": c["checker.coalitions_blamable"] / n,
        "checker.coalitions_minimal": c["checker.coalitions_minimal"] / n,
        "checker.minimal_ratio": ratio(c["checker.coalitions_minimal"], c["checker.coalitions_tried"]),
        "checker.report_json.self_ms": self_ms("checker.report_json"),
        "proofs.load_proof.self_ms": self_ms("proofs.load_proof"),
        "proofs.check_proof.self_ms": self_ms("proofs.check_proof"),
        "proofs.is_tautology.self_ms": self_ms("proofs.is_tautology"),
        "proofs.tautology_atoms": ratio(c["proofs.tautology_atoms"], calls("proofs.is_tautology") * n),
        "generate.soundness_sweep.self_ms": self_ms("generate.soundness_sweep"),
        "generate.instances": c["generate.instances"] / n,
        "trace.ops_per_s": traced.ops_per_s(),
        "trace.untraced_ops_per_s": plain.ops_per_s(),
        "trace.overhead_ratio": plain.ops_per_s() / traced.ops_per_s(),
    }
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "blamelogic").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)  # fmt: skip
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "blame", "text", "cli"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "blamelogic" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} has no src/blamelogic package or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blamelogic

    if not Path(blamelogic.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: blamelogic imported from {blamelogic.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import series
    import workloads
    from tracing import NullTracer, Tracer

    spec = json.loads(spec_path.read_text())
    # One CPU for the benchmark and its children, so that the calibration
    # spin measures the CPU the requests run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS[args.workload](args.seed)
    rounds = wl.rounds()
    first = next(rounds)
    try:
        wl.call(first[0], NullTracer())  # warm-up, untimed; the loop repeats it
    except Exception:
        pass
    rounds = itertools.chain([first], rounds)

    recursion_errors = 0
    if args.trace:
        plain = run_phase(wl, rounds, args.seconds / 2, NullTracer())
        tracer = Tracer()
        traced = run_phase(wl, rounds, args.seconds / 2, tracer)
        recursion_errors, wrong = series.defect_probes()
        values = per_layer(plain, traced, tracer)
        values["probe.recursion_errors"] = recursion_errors
        values.update(series.interpreter_split())
        values.update(series.size_series())
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
        attempted = plain.attempted + traced.attempted + 2
        failed = plain.failed + traced.failed + wrong
        errors = plain.errors + traced.errors + ["defect probe: wrong answer"] * wrong
        main_phase = traced
        wanted = spec["per_layer"]
    else:
        main_phase = run_phase(wl, rounds, args.seconds, NullTracer())
        values = end_to_end(wl, main_phase, workloads.setup_seconds(wl.setup_code, SETUP_REPEATS))
        attempted, failed, errors = main_phase.attempted, main_phase.failed, main_phase.errors
        wanted = spec["end_to_end"]

    n = len(main_phase.latencies)
    p90 = statistics.quantiles(main_phase.latencies, n=10, method="inclusive")[8]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "requests": n,
        "rounds": main_phase.rounds,
        "latency_samples": n,
        "samples_beyond_p90": sum(x > p90 for x in main_phase.latencies),
        "raw_ops_per_s": main_phase.raw_ops_per_s(),
        "raw_latency_p50_ms": statistics.median(main_phase.raw) * 1e3,
        "reference_spin_ms": REFERENCE_SPIN_S * 1e3,
        "setup_repeats": SETUP_REPEATS,
        "failed_ratio": failed / attempted,
        "known_defect_recursion_errors": recursion_errors if args.trace else None,
    }
    print("meta " + json.dumps(meta))
    for e in errors:
        print(f"failed {e}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
