#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/firbench from source and runs it.

One workload (the form BENCHMARK.json's command uses):

    python3 perfbench/run.py --workload http-static --seed 1 --seconds 35 --trace 0

prints human-readable lines, then one JSON object as the last stdout line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.

Every workload in turn, with a summary table (the one-command overview):

    python3 perfbench/run.py --workload all --seed 1 --seconds 35 [--trace 1]

The build goes to $CARGO_TARGET_DIR (default .bench_build), relative to the
repository root. FIR_* knobs are cleared so the servers run their defaults.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["http-static", "http-faults", "kv-mixed"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run still going after this long is killed and fails.
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def clean_env(tmp):
    env = {k: v for k, v in os.environ.items() if not k.startswith("FIR_")}
    env["TMPDIR"] = str(tmp)
    return env


def build():
    """Configures (once) and builds firbench; returns the binary's path."""
    if not (ROOT / "src" / "apps" / "miniginx.h").is_file():
        fail(f"program sources not found under {ROOT / 'src'}")
    bdir = build_dir()
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = clean_env(tmp)
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(bdir), "--target", "firbench",
                      "-j", "4"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env)
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return bdir / "firbench"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           env=clean_env(build_dir() / "tmp"),
                           timeout=RUN_TIMEOUT_S)
        return r.returncode, r.stdout.splitlines()
    except subprocess.TimeoutExpired as e:
        # run() has killed and reaped the child.
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        out = e.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        return 124, out.splitlines()


def summary(results):
    """Attempted/failed per workload, then one row per metric with a column
    per workload."""
    names = []
    for _, res in results:
        for n in res.get("metrics", {}):
            if n not in names:
                names.append(n)
    print("\n" + "workload".ljust(14) + "ops_attempted".rjust(16) +
          "ops_failed".rjust(16))
    for w, res in results:
        print(w.ljust(14) + str(res.get("attempted", "-")).rjust(16) +
              str(res.get("failed", "-")).rjust(16))
    for n in names:
        row = n.ljust(38)
        for w, res in results:
            m = res.get("metrics", {}).get(n)
            row += (f"{m['value']:.6g}" if m else "-").rjust(14)
        print(row)
    print("".ljust(38) + "".join(w.rjust(14) for w, _ in results))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    if args.workload != "all":
        code, lines = run_workload(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
        for line in lines:
            print(line)
        sys.exit(code)

    results, worst = [], 0
    for w in WORKLOADS:
        code, lines = run_workload(binary, w, args.seed, args.seconds,
                                   args.trace)
        for line in lines[:-1]:
            print(line)
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {}
        if code != 0 or not res.get("correct"):
            print(f"perfbench: {w} FAILED (exit {code})", file=sys.stderr)
            worst = worst or code or 1
        results.append((w, res))
    summary(results)
    sys.exit(worst)


if __name__ == "__main__":
    main()
