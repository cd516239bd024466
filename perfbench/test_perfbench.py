#!/usr/bin/env python3
"""The benchmark's own tests, run at a short length.

    python3 perfbench/test_perfbench.py

Builds the benchmark through run.py (like any run) and checks that
  * the same seed repeats the virtual metrics bit for bit (bulk-stream only
    those its background flushers cannot reach, see README.md),
  * a different seed issues a different call sequence, so the seed reaches
    the generator,
  * on tools-session the layer split accounts for the client's virtual
    time to within 1%.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "1"


def run(workload, seed, trace=0):
    """Returns (result JSON, call-sequence hash) of one short run."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    calls = next(line.split()[1] for line in lines if line.startswith("calls "))
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout + out.stderr
    return result, calls


def values(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


VIRTUAL = ["attach_ms", "op_p50_us", "op_p99_us", "ops_per_s", "mb_per_s", "overhead_x"]


class PerfbenchTest(unittest.TestCase):
    def test_virtual_metrics_repeat_and_follow_the_seed(self):
        for workload in ("tools-session",):
            with self.subTest(workload=workload):
                first, calls = run(workload, 7)
                second, calls_again = run(workload, 7)
                self.assertEqual(calls, calls_again)
                self.assertEqual(values(first, VIRTUAL), values(second, VIRTUAL))
                _, other_calls = run(workload, 8)
                self.assertNotEqual(calls, other_calls)

    def test_bulk_stream_repeats_outside_flusher_drift(self):
        # Background flushers run on their own threads, so how much a write
        # or fsync waits for them drifts between runs; attach and the read
        # latency median do not depend on them.
        first, calls = run("bulk-stream", 7)
        second, calls_again = run("bulk-stream", 7)
        self.assertEqual(calls, calls_again)
        exact = ["attach_ms", "op_p50_us"]
        self.assertEqual(values(first, exact), values(second, exact))
        _, other_calls = run("bulk-stream", 8)
        self.assertNotEqual(calls, other_calls)

    def test_tools_session_layer_split_accounts_for_client_time(self):
        traced, _ = run("tools-session", 7, trace=1)
        residual = traced["metrics"]["layer_split_residual"]["value"]
        self.assertLessEqual(residual, 0.01)
        shares = values(traced, ["kernel.self_share", "fuse.conn.queue_share",
                                 "fuse.conn.transit_share", "core.cntrfs.service_share"])
        self.assertTrue(all(0 < share < 1 for share in shares.values()), shares)


if __name__ == "__main__":
    unittest.main()
