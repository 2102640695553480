#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds 2]

Runs every workload briefly, untraced and traced, through perfbench/run.py
and checks that each run passes its output checks and guards (exit 0,
"correct": true, no failed operation), that it reports exactly the metrics
BENCHMARK.json names with their units, that every end-to-end value is
positive, and that per-request counts repeat within 1% across two traced
runs with the same seed.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Per-request counts: fixed by the seeded request mix, not by timing.
REPEATABLE = ["core.gates_per_request", "core.checkpoints_per_request",
              "core.snapshot_bytes_per_request", "mem.htm_lines_per_request",
              "env.syscalls_per_request", "apps.requests_per_pass"]


def run(workload, seconds, trace, seed=1):
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    lines = r.stdout.splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = None
    return r.returncode, res, r.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    traced = {}
    for w in (m["name"] for m in spec["workloads"]):
        for trace in (0, 1):
            code, res, err = run(w, args.seconds, trace)
            tag = f"{w} trace={trace}"
            check(code == 0 and res is not None,
                  f"{tag}: exit {code}" + (f"\n{err}" if code else ""))
            if res is None:
                continue
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  f"{tag}: correct={res['correct']} failed={res['failed']} "
                  f"attempted={res['attempted']}")
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            check(got == expected[trace], f"{tag}: metric names and units")
            values = [m["value"] for m in res["metrics"].values()]
            check(all(math.isfinite(v) for v in values), f"{tag}: finite")
            if trace == 0:
                check(all(v > 0 for v in values),
                      f"{tag}: end-to-end values positive")
            else:
                traced[w] = res["metrics"]

    for w in traced:
        _, again, _ = run(w, args.seconds, 1)
        if again is None:
            check(False, f"{w}: second traced run")
            continue
        for name in REPEATABLE:
            a, b = traced[w][name]["value"], again["metrics"][name]["value"]
            check(abs(a - b) <= 0.01 * max(abs(a), abs(b)),
                  f"{w}: {name} repeats within 1% ({a:.4g} vs {b:.4g})")

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
