#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload bulk-stream --seeds 1-5 [--seconds 10]

Spread is the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median, next to the
metric's bound from BENCHMARK.json. Runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        status = "ok" if out.returncode == 0 and result["correct"] else "FAILED"
        print("seed %d: %s attempted=%d failed=%d" %
              (seed, status, result["attempted"], result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print("%-28s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, vals in values.items():
        median = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [median] * 3
        spread = (q[2] - q[0]) / median if median else 0.0
        bound = bounds.get(name)
        print("%-28s %14.6g %8.2f%% %7s" %
              (name, median, 100 * spread, "-" if bound is None else "%g" % bound))


if __name__ == "__main__":
    main()
