#!/usr/bin/env python3
"""Determinism guard: two runs of the same bench must report the same
numbers. Every panel is virtual (simulated) time, so a key that moves
between runs means some charge lands on a timeline at a moment set by
thread scheduling.

Usage:
  check_determinism.py <run1.json> <run2.json> [--allow PREFIX ...]
      bench --json artifacts: every flat (non-object) key must hold the
      same value in both runs, except keys that start with an allowed
      prefix (panels that run real client threads by design).
  check_determinism.py --text <run1.txt> <run2.txt> [--min-shape N]
      plain bench outputs must be byte-identical; with --min-shape, the
      "shape agreement: K/M" line (bench_phoronix) must show K >= N.
"""
import argparse
import json
import re
import sys

SHAPE = re.compile(r"^shape agreement: (\d+)/(\d+)", re.M)


def flat(path):
    with open(path) as f:
        data = json.load(f)
    return {k: v for k, v in data.items() if not isinstance(v, (dict, list))}


def check_json(a_path, b_path, allow):
    a, b = flat(a_path), flat(b_path)
    failures = []
    for key in sorted(a.keys() | b.keys()):
        if any(key.startswith(p) for p in allow):
            continue
        if a.get(key) != b.get(key):
            failures.append(f"{key}: {a.get(key)} vs {b.get(key)}")
    return failures


def check_text(a_path, b_path, min_shape):
    with open(a_path) as f:
        a = f.read()
    with open(b_path) as f:
        b = f.read()
    failures = []
    if a != b:
        for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
            if la != lb:
                failures.append(f"line {i} differs:\n  {la}\n  {lb}")
                break
        else:
            failures.append("outputs differ in length")
    if min_shape is not None:
        m = SHAPE.search(a)
        if m is None:
            failures.append("no 'shape agreement' line")
        elif int(m.group(1)) < min_shape:
            failures.append(f"shape agreement {m.group(1)}/{m.group(2)} "
                            f"below {min_shape}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first")
    parser.add_argument("second")
    parser.add_argument("--text", action="store_true",
                        help="compare plain outputs byte for byte")
    parser.add_argument("--allow", action="append", default=[],
                        help="flat-key prefix exempt from the comparison")
    parser.add_argument("--min-shape", type=int, default=None,
                        help="minimum bench_phoronix shape agreement")
    args = parser.parse_args()
    if args.text:
        failures = check_text(args.first, args.second, args.min_shape)
    else:
        failures = check_json(args.first, args.second, args.allow)
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print("determinism: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
