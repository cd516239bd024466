#!/usr/bin/env python3
"""Runs two built perfbench binaries in alternating pairs and compares them.

    python3 scripts/dev/ab_perfbench.py --parent P/perfbench --change C/perfbench \\
        --workload bulk-stream --seed 1 [--pairs 10] [--seconds S]

Build each binary from its own checkout first (`python3 perfbench/run.py`
there leaves it at .bench_build/perfbench/perfbench). Every pair runs both
binaries once with --trace 0 at BENCHMARK.json's run_seconds (or --seconds),
and the side that runs first alternates from pair to pair. For each
end-to-end metric in BENCHMARK.json the report gives each side's median and
quartiles (statistics.quantiles, n=4), the pairs the change won (ties count
for neither side), and two verdicts:

  claim  the change may claim a gain: it won at least nine tenths of the
         pairs and the medians differ by more than the parent's
         interquartile range, in the metric's better direction;
  bound  "worse" when the change's median is worse than the parent's by
         more than the metric's bound; "unresolved" when either side's
         interquartile range, as a share of its median, is wider than the
         bound and not every change run beats every parent run; "same"
         when every run of both sides read the same value.

It also reports failed operations and whether the runs' `machine` and
`calls` lines (less the host-paced timed-round count) agree across sides.
The script only runs the benchmark.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_TIMEOUT_S = 300


def run_once(binary, workload, seed, seconds):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit("%s printed nothing (exit %d): %s" % (binary, out.returncode, out.stderr))
    result = json.loads(lines[-1])
    result["exit"] = out.returncode
    # The calls line's `rounds` counts timed rounds, which host speed sets;
    # the call hash and the prefix it covers must match.
    result["tags"] = [re.sub(r"\brounds \d+ ", "", l) for l in lines[:-1]
                      if l.startswith(("machine ", "calls "))]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="perfbench binary of the parent")
    parser.add_argument("--change", required=True, help="perfbench binary of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="also write every run's result here as JSON")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    binaries = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(binaries[side], args.workload, args.seed, seconds))
        print("pair %d (%s first): %s" % (pair + 1, order[0], "  ".join(
            "%s %s=%.6g" % (side, name, runs[side][-1]["metrics"][name]["value"])
            for side in ("parent", "change") for name in ("host_op_p50_us",)
            if name in runs[side][-1]["metrics"])), flush=True)

    print("\n%s seed %d, %d pairs at %g s" % (args.workload, args.seed, args.pairs, seconds))
    for side in ("parent", "change"):
        side_runs = runs[side]
        print("%-6s failed %s, exit %s, incorrect runs %d, attempted median %d" % (
            side, sorted({r["failed"] for r in side_runs}),
            sorted({r["exit"] for r in side_runs}),
            sum(1 for r in side_runs if not r["correct"]),
            statistics.median(r["attempted"] for r in side_runs)))
    tags = {tuple(r["tags"]) for side in runs.values() for r in side}
    print("machine/calls lines: %s" % ("identical" if len(tags) == 1 else
                                       "DIFFER (%d variants)" % len(tags)))

    print("%-20s %-32s %-32s %8s %6s %5s %10s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins",
        "claim", "bound"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if not all(name in r["metrics"] for side in runs.values() for r in side):
            continue
        lower = metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        pq1, pmed, pq3 = quartiles(values["parent"])
        cq1, cmed, cq3 = quartiles(values["change"])
        wins = sum(1 for p, c in zip(values["parent"], values["change"])
                   if (c < p if lower else c > p))
        gain = (pmed - cmed) if lower else (cmed - pmed)
        claim = wins * 10 >= 9 * args.pairs and gain > pq3 - pq1
        worse = -gain / pmed if pmed else 0.0
        spread = max((pq3 - pq1) / pmed if pmed else 0.0, (cq3 - cq1) / cmed if cmed else 0.0)
        all_better = (max(values["change"]) < min(values["parent"]) if lower else
                      min(values["change"]) > max(values["parent"]))
        bound = metric.get("bound")
        verdict = "ok"
        if len(set(values["parent"]) | set(values["change"])) == 1:
            verdict = "same"
        elif bound is not None and worse > bound:
            verdict = "worse"
        elif bound is not None and spread > bound and not all_better:
            verdict = "unresolved"
        print("%-20s %-32s %-32s %+7.1f%% %3d/%-2d %5s %10s" % (
            name, "%.6g [%.6g, %.6g]" % (pmed, pq1, pq3),
            "%.6g [%.6g, %.6g]" % (cmed, cq1, cq3),
            100.0 * (cmed - pmed) / pmed if pmed else 0.0, wins, args.pairs,
            "yes" if claim else "no", verdict))

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                       "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
