#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload http-static --seeds 1-10 [--seconds S]

Runs perfbench/run.py once per seed, then prints for every end-to-end
metric in BENCHMARK.json its median, its quartile spread
((Q3 - Q1) / median, from statistics.quantiles(n=4)) and the metric's
bound. A spread above the bound means the metric cannot resolve a
regression of that size on the machine that ran it.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    values = {}
    for seed in seeds_of(args.seeds):
        r = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        res = json.loads(r.stdout.splitlines()[-1])
        if r.returncode != 0 or not res["correct"]:
            sys.exit(f"seed {seed}: run failed (exit {r.returncode})")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()),
            flush=True)

    worst = 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med
        flag = "" if spread <= m["bound"] / 3 else (
            "  (above bound/3)" if spread <= m["bound"] else "  OVER BOUND")
        if m["name"] != "setup_s" and spread > m["bound"]:
            worst = 1
        print(f"{m['name']:<18} median {med:<14.6g} spread {spread:6.3f} "
              f"bound {m['bound']}{flag}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
