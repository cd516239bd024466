#!/usr/bin/env python3
"""Builds and runs the cntr attach benchmark.

    python3 perfbench/run.py --workload tools-session --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
program from ../src together with the benchmark (perfbench/CMakeLists.txt)
into .bench_build/; later runs only rebuild what changed. The benchmark's
own output goes to stdout, its last line being the JSON result; build
output goes to stderr. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("tools-session", "bulk-stream", "fleet-rw")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "attach.h")):
        sys.exit("perfbench: no program sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
