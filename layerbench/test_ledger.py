#!/usr/bin/env python3
"""The layer-ledger benchmark's own tests.

    python3 layerbench/test_ledger.py      # from the checkout root

Builds the driver (as run.py does) and checks that
  * a sink that drops or adds one pair fails the run with
    pair_mismatches > 0 (and a clean run passes with 0);
  * the work counters repeat exactly for a fixed seed across two traced
    runs of every workload.
Takes about a minute.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark entry point, for its build step)

OUT = os.path.join(run.BUILD, "test-out")
WORKLOADS = ["dense-engine", "sparse-fleet", "mixed-batch"]
# The counters a later change may cite as counts: they must not depend on
# timing.
WORK_COUNTERS = ["index.entries_traversed", "index.candidates",
                 "index.l2_prunes", "index.full_dots", "index.pairs",
                 "index.pairs_per_candidate", "index.entries_per_item",
                 "index.entries_indexed", "index.entries_pruned",
                 "index.reindexed_coords", "index.peak_entries",
                 "index.window_rebuilds", "fleet.restarts"]


def ledger(workload, seed, trace, fault="none"):
    """Runs the driver for the shortest measured time; returns
    (exit code, result JSON, the run's record)."""
    os.makedirs(OUT, exist_ok=True)
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--out-dir", OUT,
         "--fault", fault],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    mode = "traced" if trace else "timed"
    with open(os.path.join(OUT, "%s-%s.json" % (workload, mode))) as f:
        record = json.load(f)
    return proc.returncode, result, record


class OutputCheckTest(unittest.TestCase):
    def test_clean_run_passes(self):
        code, result, record = ledger("dense-engine", 5, 0)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(record["env"]["pair_mismatches"], 0)

    def test_dropped_pair_fails_the_run(self):
        for workload, trace in [("dense-engine", 0), ("sparse-fleet", 1)]:
            code, result, record = ledger(workload, 5, trace, fault="drop")
            self.assertNotEqual(code, 0, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(record["env"]["pair_mismatches"], 0, workload)

    def test_added_pair_fails_the_run(self):
        for workload, trace in [("mixed-batch", 0), ("dense-engine", 1)]:
            code, result, record = ledger(workload, 5, trace, fault="add")
            self.assertNotEqual(code, 0, workload)
            self.assertFalse(result["correct"], workload)
            self.assertGreater(record["env"]["pair_mismatches"], 0, workload)


class CounterRepeatTest(unittest.TestCase):
    def test_work_counters_repeat_for_a_fixed_seed(self):
        for workload in WORKLOADS:
            _, first, _ = ledger(workload, 7, 1)
            _, second, _ = ledger(workload, 7, 1)
            for name in WORK_COUNTERS:
                self.assertEqual(first["metrics"][name]["value"],
                                 second["metrics"][name]["value"],
                                 "%s %s" % (workload, name))
            # Not vacuous: the index did work.
            self.assertGreater(first["metrics"]["index.entries_traversed"]
                               ["value"], 0, workload)


if __name__ == "__main__":
    if not run.build():
        sys.exit("build failed; see %s" % os.path.join(run.BUILD, "build.log"))
    unittest.main()
