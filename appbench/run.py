#!/usr/bin/env python3
"""Build and run the application-shaped Proust benchmark.

Run from the repository root:

    python3 appbench/run.py --workload ledger --seed 1 --seconds 10 --trace 0

Workloads: ledger, orderbook, jobs_wal. --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer metrics. The benchmark is (re)built from the
sources in this checkout into .bench_build/appbench first; build output goes
to stderr. A run is PROCESSES independent processes of --seconds/PROCESSES
each, and every figure it prints is their mean. The last line of stdout is
the run's JSON result. See appbench/NOTES.md for what each workload and
metric means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "appbench")
BINARY = os.path.join(BUILD_DIR, "appbench")
WORKLOADS = ("ledger", "orderbook", "jobs_wal")
BUILD_JOBS = "4"
# One process of the same workload and seed can run ~20 % slower than the
# next, whichever order they run in (see NOTES.md, Steadiness), so a run
# averages several.
PROCESSES = 3


def fail(msg):
    print("appbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    sys.stderr.write(proc.stdout.decode(errors="replace"))
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build():
    """Configure (first time) and build the benchmark; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the Proust sources (src/) are not next to appbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "appbench",
               "-j", BUILD_JOBS])
    return BINARY


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    binary = build()
    scratch = os.path.join(ROOT, ".bench_build", "scratch")
    os.makedirs(scratch, exist_ok=True)
    seconds = max(1, args.seconds // PROCESSES)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--scratch", scratch] + extra
    results = []
    for _ in range(PROCESSES):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE)
        if proc.returncode != 0:
            fail("appbench exited with code %d" % proc.returncode)
        results.append(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": sum(values) / len(values), "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
