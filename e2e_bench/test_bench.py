#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself (not part of the ctest suite).

    python3 e2e_bench/test_bench.py

Builds the benchmark through run.py if needed, then runs every workload at a
tiny scale in both modes and checks the result contract against
BENCHMARK.json, and checks that an injected grounding deadline is counted
as failed expansions instead of being dropped.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, trace, *extra, seconds=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale-factor", "0.2", "--override", "kbs=2"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    return proc


class TinyScalePass(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, proc.stdout)
        defs = BENCHMARK["per_layer" if trace else "end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [d["name"] for d in defs])
        for d in defs:
            value = metrics[d["name"]]
            self.assertEqual(value["unit"], d["unit"], d["name"])
            self.assertTrue(math.isfinite(value["value"]), d["name"])
            if not trace:
                self.assertGreater(value["value"], 0, d["name"])
            # Every metric is also printed by name with its unit.
            self.assertTrue(
                any(l.startswith("metric %s " % d["name"]) and
                    l.endswith(" " + d["unit"]) for l in lines), d["name"])
        return proc.stdout

    def test_every_workload_untraced(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.check(w["name"], 0)
                self.assertIn("error_rate: 0.0000", out)

    def test_every_workload_traced(self):
        for w in BENCHMARK["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.check(w["name"], 1)
                self.assertNotIn("FAILED", out)


class InjectedBudgetFailure(unittest.TestCase):
    def test_deadline_counts_in_error_rate(self):
        proc = run("expand_infer", 0, "--override", "deadline_seconds=1e-12")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("error_rate: 1.0000", proc.stdout)
        self.assertIn("Deadline exceeded", proc.stdout)


class BareCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "e2e_bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "e2e_bench/run.py", "--workload",
                 "expand_infer", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
