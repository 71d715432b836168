#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form runs one workload: --trace 0 measures the end-to-end
metrics with tracing off, --trace 1 produces the per-layer ledger and
writes the spans.  --all runs every workload with tracing off and
prints one table.  Each run prints its metrics by name with their unit
and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with the
resolved config and what was measured, goes to .bench_results/.

The binary is built from the repository's src/ tree into .bench_build/
on first use.  Exit code 0 means every output check passed and no
request went unanswered; 1 means a check failed; 2 means the benchmark
could not run at all.
"""

import argparse
import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_results"
BINARY = BUILD_DIR / "perfbench"

WORKLOADS = [
    "paper_gups_128B",
    "ring8_spread_gups",
    "ring4_2host_zipf_rw",
    "ring8_spread_gups_par4",
]
# Seed that later performance claims re-check on; never tune with it.
HOLDOUT_SEED = 20260917
RUN_TIMEOUT_S = 170


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Run the binary without address-space randomisation: its speed
    depends on where heap and stack land, which would otherwise add a
    run-to-run spread larger than the bounds (setarch -R does the same)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        cur = libc.personality(0xFFFFFFFF)
        if cur != -1:
            libc.personality(cur | ADDR_NO_RANDOMIZE)
    except OSError:
        pass


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def git_commit():
    """Commit of the measured tree, '-dirty' with uncommitted changes."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def validate(doc, expected):
    """Problems with @p doc's metrics against the names/units in
    BENCHMARK.json (@p expected: list of {name, unit, ...})."""
    problems = []
    got = doc.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name}: unit {m.get('unit')!r}, "
                            f"expected {unit!r}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {name}: value {m.get('value')!r}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    if not isinstance(doc.get("attempted"), int) or doc["attempted"] < 1:
        problems.append("nothing attempted")
    return problems


def run_workload(spec, workload, seed, seconds, trace, window_scale):
    """Run one workload; returns its result line as a dict."""
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    spans = RESULTS_DIR / f"spans-{stem}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--window-scale", str(window_scale), "--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: benchmark binary exited with "
                         f"{proc.returncode}")
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: unreadable result {lines[-1]!r}")
    expected = spec["per_layer" if trace else "end_to_end"]
    problems = validate(doc, expected)
    if problems:
        raise BenchError(f"{workload}: " + "; ".join(problems))

    doc["commit"] = git_commit()
    doc["holdout_seed"] = HOLDOUT_SEED
    if trace:
        doc["spans_file"] = str(spans.relative_to(ROOT))
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1))

    failed = doc["failed"]
    correct = bool(doc["correct"]) and failed == 0
    for failure in doc["check_failures"]:
        print(f"CHECK FAILED {workload}: {failure}")
    for m in expected:
        v = doc["metrics"][m["name"]]
        print(f"{workload}  {m['name']} = {v['value']:.6g} {v['unit']}")
    return {"correct": correct, "attempted": doc["attempted"],
            "failed": failed,
            "metrics": {m["name"]: doc["metrics"][m["name"]]
                        for m in expected}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload with tracing off")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="wall seconds measured per workload "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--window-scale", type=float, default=1.0,
                    help="shrink the simulated windows (self-test only)")
    args = ap.parse_args()
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")

    try:
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        build()
        if args.workload:
            line = run_workload(spec, args.workload, args.seed, seconds,
                                   args.trace, args.window_scale)
        else:
            line = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
            for w in WORKLOADS:
                one = run_workload(spec, w, args.seed, seconds, 0,
                                      args.window_scale)
                line["correct"] = line["correct"] and one["correct"]
                line["attempted"] += one["attempted"]
                line["failed"] += one["failed"]
                for name, m in one["metrics"].items():
                    line["metrics"][f"{w}.{name}"] = m
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
