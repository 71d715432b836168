#!/usr/bin/env python3
"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload briefly (shrunk simulated windows, one second of
measurement) with tracing off and on, and asserts that
  1. every metric of BENCHMARK.json is printed by name with its unit,
  2. the output checks pass and no request goes unanswered,
  3. the parallel workload models exactly what its serial twin does.
Exit code 0 when all hold.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

SEED = 7
WINDOW_SCALE = 0.1
# Modelled (simulated-time) metrics: identical between engines.
MODELLED_E2E = ["bandwidth_gbs", "read_lat_p50_ns", "read_lat_p99_ns",
                "paper_bw_err_pct"]
HOST_TIME_PER_LAYER = {
    "sim.allocs_per_event", "sim.alloc_bytes_per_event",
    "sim.cpu_per_wall", "sim.parallel_speedup",
    "sim.unattributed_ns_per_event", "host.tick_ns_per_event",
    "hmc.serdes_ns_per_event", "hmc.vault_ns_per_event",
    "chain.ns_per_event", "obs.trace_overhead_pct"}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--window-scale", str(WINDOW_SCALE)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, \
        f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    return lines[:-1], json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    results = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            printed, line = run(w, trace)
            expected = spec["per_layer" if trace else "end_to_end"]
            for m in expected:
                prefix = f"{w}  {m['name']} = "
                shown = [p for p in printed if p.startswith(prefix)]
                assert len(shown) == 1 and \
                    shown[0].endswith(" " + m["unit"]), \
                    f"{w}: {m['name']} not printed with unit {m['unit']}"
                assert line["metrics"][m["name"]]["unit"] == m["unit"]
            assert line["correct"] and line["failed"] == 0, \
                f"{w} trace {trace}: output checks failed: {printed}"
            assert line["attempted"] >= 1
            results[w, trace] = line["metrics"]
            print(f"ok  {w} trace {trace}")

    serial, par = "ring8_spread_gups", "ring8_spread_gups_par4"
    for name in MODELLED_E2E:
        assert results[serial, 0][name] == results[par, 0][name], \
            f"{name} differs between {serial} and {par}"
    for name in results[serial, 1]:
        if name not in HOST_TIME_PER_LAYER:
            assert results[serial, 1][name] == results[par, 1][name], \
                f"{name} differs between {serial} and {par}"
    print(f"ok  {par} models identically to {serial}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
