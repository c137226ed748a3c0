#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

For each workload, runs the untraced mode with two seeds and the traced mode
with one, and checks that the result line names every metric BENCHMARK.json
declares for that mode, each with its declared unit and a finite value, that
every end-to-end metric is non-zero, and that nothing failed (failed_ratio
0). Exits non-zero on the first violation.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(msg):
    print(f"smoke FAILED: {msg}")
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            res = run(w["name"], seed, trace)
            label = f"{w['name']} seed {seed} trace {trace}"
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                fail(f"{label}: failed_ratio {res['failed']}/{res['attempted']}")
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            if set(res["metrics"]) != {m["name"] for m in declared}:
                fail(f"{label}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = res["metrics"][m["name"]]
                if got["unit"] != m["unit"]:
                    fail(f"{label}: {m['name']} unit {got['unit']!r}, declared {m['unit']!r}")
                if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                    fail(f"{label}: {m['name']} value {got['value']!r}")
                if not trace and got["value"] == 0:
                    fail(f"{label}: end-to-end {m['name']} is 0")
            print(f"ok  {label}: {res['attempted']} attempted, 0 failed, {len(declared)} metrics")
    print("smoke: OK")


if __name__ == "__main__":
    main()
