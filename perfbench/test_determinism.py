#!/usr/bin/env python3
"""Determinism test of the end-to-end benchmark.

For every workload: two runs with the same seed give the same digest of the
generated operation sequence and the same served_mre, and a run with
another seed gives another digest. Run from anywhere:

    python3 perfbench/test_determinism.py

Each run is short (--seconds 1); the whole test takes about a minute,
plus the first build.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(".bench_build", "determinism")
WORKLOADS = ("read-hot", "catalog-feedback", "ingest-durable")


def run(workload, seed):
    """Runs one short untraced workload; returns (output line, result.json)."""
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0", "--results", RESULTS],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=900)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise AssertionError("%s seed %d failed (exit %d)" % (
            workload, seed, completed.returncode))
    path = os.path.join(ROOT, RESULTS, workload, "seed-%d-trace-0" % seed,
                        "result.json")
    with open(path) as f:
        return json.loads(lines[-1]), json.load(f)


class DeterminismTest(unittest.TestCase):
    def check_workload(self, workload):
        line_a, result_a = run(workload, 11)
        line_b, result_b = run(workload, 11)
        _, result_c = run(workload, 12)
        for line in (line_a, line_b):
            self.assertTrue(line["correct"])
            self.assertEqual(line["failed"], 0)
        digest_a = result_a["context"]["op_digest"]
        self.assertEqual(digest_a, result_b["context"]["op_digest"])
        self.assertEqual(line_a["metrics"]["served_mre"]["value"],
                         line_b["metrics"]["served_mre"]["value"])
        self.assertGreater(line_a["metrics"]["served_mre"]["value"], 0.0)
        self.assertNotEqual(digest_a, result_c["context"]["op_digest"])

    def test_read_hot(self):
        self.check_workload("read-hot")

    def test_catalog_feedback(self):
        self.check_workload("catalog-feedback")

    def test_ingest_durable(self):
        self.check_workload("ingest-durable")


if __name__ == "__main__":
    unittest.main()
