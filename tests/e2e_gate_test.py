#!/usr/bin/env python3
"""Verdict logic of tools/e2e_gate.py on synthetic run results.

    python3 tests/e2e_gate_test.py

Builds and runs nothing: every case feeds judge() or parse_result()
hand-made results and checks whether the gate passes or fails them.
"""

import importlib.util
import json
import os
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "e2e_gate", os.path.join(ROOT, "tools", "e2e_gate.py"))
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

END_TO_END = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "expand_ns_per_row_pass", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_bytes_per_row", "better": "lower", "bound": 0.2},
]


def result(ns=100.0, setup=1.0, rss=200.0, correct=True, attempted=20,
           failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {
                "setup_s": {"value": setup, "unit": "s"},
                "expand_ns_per_row_pass": {"value": ns, "unit": "ns"},
                "peak_rss_bytes_per_row": {"value": rss, "unit": "B"}}}


def traced(new_atoms=5000, variables=9000, factors=12000, shipped=1e6):
    values = {"grounding.new_atoms": new_atoms,
              "factor.variables": variables, "factor.factors": factors,
              "mpp.bytes_shipped": shipped}
    return {"correct": True, "attempted": 8, "failed": 0,
            "metrics": {k: {"value": v, "unit": "count"}
                        for k, v in values.items()}}


def verdict(parent_runs, change_runs, parent_trace=None, change_trace=None,
            workload="ground_fixpoint"):
    _, failures = gate.judge(
        workload, END_TO_END, parent_runs, change_runs,
        parent_trace if parent_trace is not None else traced(),
        change_trace if change_trace is not None else traced())
    return failures


PARENT = [result(ns=v) for v in (98, 100, 101, 99, 102)]


class GateVerdicts(unittest.TestCase):
    def test_identical_sides_pass(self):
        self.assertEqual(verdict(PARENT, list(PARENT)), [])

    def test_worse_by_more_than_the_bound_fails(self):
        change = [result(ns=v) for v in (128, 130, 127, 131, 129)]
        failures = verdict(PARENT, change)
        self.assertEqual(len(failures), 1)
        self.assertIn("expand_ns_per_row_pass", failures[0])

    def test_worse_by_less_than_the_bound_passes(self):
        change = [result(ns=v) for v in (118, 120, 121, 119, 122)]
        self.assertEqual(verdict(PARENT, change), [])

    def test_better_change_passes(self):
        change = [result(ns=v / 2, setup=0.5, rss=100.0)
                  for v in (98, 100, 101, 99, 102)]
        self.assertEqual(verdict(PARENT, change), [])

    def test_higher_is_better_metric_is_judged_downwards(self):
        self.assertGreater(gate.worse_fraction(100.0, 70.0, "higher"), 0.25)
        self.assertLess(gate.worse_fraction(100.0, 130.0, "higher"), 0)

    def test_higher_failed_share_fails(self):
        change = list(PARENT)
        change[2] = result(ns=101, failed=1)
        failures = verdict(PARENT, change)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_incorrect_run_fails(self):
        change = list(PARENT)
        change[0] = result(correct=False)
        self.assertTrue(verdict(PARENT, change))
        self.assertTrue(verdict(PARENT, PARENT, change_trace=dict(
            traced(), correct=False)))

    def test_unequal_counts_fail(self):
        for field in ("new_atoms", "variables", "factors"):
            kwargs = {field: 4999}
            failures = verdict(PARENT, PARENT,
                               change_trace=traced(**kwargs))
            self.assertEqual(len(failures), 1, field)
            self.assertIn("differs", failures[0])

    def test_timed_workload_skips_counts_but_not_bytes(self):
        self.assertEqual(verdict(PARENT, PARENT,
                                 change_trace=traced(new_atoms=1),
                                 workload="serve_mixed"), [])
        self.assertTrue(verdict(PARENT, PARENT,
                                change_trace=traced(shipped=2e6),
                                workload="serve_mixed"))

    def test_bytes_shipped_growth_is_bounded_at_ten_percent(self):
        self.assertEqual(
            verdict(PARENT, PARENT, change_trace=traced(shipped=1.09e6)), [])
        failures = verdict(PARENT, PARENT,
                           change_trace=traced(shipped=1.11e6))
        self.assertEqual(len(failures), 1)
        self.assertIn("mpp.bytes_shipped", failures[0])

    def test_missing_result_fails(self):
        change = list(PARENT)
        change[3] = None
        self.assertTrue(verdict(PARENT, change))
        self.assertTrue(verdict(PARENT, [], ))
        _, failures = gate.judge("ground_mpp", END_TO_END, PARENT, PARENT,
                                 traced(), None)
        self.assertTrue(failures)

    def test_missing_metric_fails(self):
        change = list(PARENT)
        change[1] = result()
        del change[1]["metrics"]["setup_s"]
        self.assertTrue(verdict(PARENT, change))
        trace = traced()
        del trace["metrics"]["factor.factors"]
        self.assertTrue(verdict(PARENT, PARENT, change_trace=trace))

    def test_zero_attempted_fails(self):
        change = [result(attempted=0) for _ in PARENT]
        self.assertTrue(verdict(PARENT, change))


class ParseResult(unittest.TestCase):
    def test_last_json_line_is_the_result(self):
        text = "KB 0: ...\nmetric setup_s 1 s\n" + json.dumps(result())
        self.assertEqual(gate.parse_result(text), result())

    def test_unparsable_output_is_no_result(self):
        for text in ("", None, "\n\n", "build failed", "{\"correct\": tr",
                     json.dumps(result()) + "\ntrailing words",
                     json.dumps({"metrics": {}}), json.dumps([1, 2]),
                     json.dumps({"correct": True, "attempted": 1,
                                 "failed": 0, "metrics": "none"})):
            self.assertIsNone(gate.parse_result(text), repr(text))

    def test_non_numeric_metric_counts_as_missing(self):
        bad = result()
        bad["metrics"]["setup_s"]["value"] = "fast"
        self.assertIsNone(gate.metric(bad, "setup_s"))
        self.assertTrue(verdict(PARENT, [bad] + PARENT[1:]))


if __name__ == "__main__":
    unittest.main()
