#!/usr/bin/env python3
"""Pins the verdict rules of compare.py."""

import json
import os
import pathlib
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import compare  # noqa: E402


class HostVerdict(unittest.TestCase):
    def test_clear_win_is_improved(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [90, 91, 89, 90, 92, 88, 90, 91, 89, 90]
        self.assertEqual(compare.host_verdict(base, change, "lower", 0.1), compare.IMPROVED)

    def test_win_inside_base_spread_is_not_improved(self):
        base = [100, 110, 90, 105, 95, 100, 108, 92, 100, 100]
        change = [x - 1 for x in base]
        self.assertEqual(compare.host_verdict(base, change, "lower", 0.25), compare.UNCHANGED)

    def test_fewer_than_nine_tenths_wins_is_not_improved(self):
        base = [100] * 10
        change = [80] * 8 + [120] * 2
        self.assertNotEqual(compare.host_verdict(base, change, "lower", 0.1), compare.IMPROVED)

    def test_worse_by_more_than_bound_is_regressed(self):
        base = [100, 101, 99, 100, 100]
        change = [120, 121, 119, 120, 120]
        self.assertEqual(compare.host_verdict(base, change, "lower", 0.1), compare.REGRESSED)

    def test_worse_within_bound_is_unchanged(self):
        base = [100, 101, 99, 100, 100]
        change = [105, 106, 104, 105, 105]
        self.assertEqual(compare.host_verdict(base, change, "lower", 0.1), compare.UNCHANGED)

    def test_pairs_that_disagree_are_unresolved(self):
        base = [70, 130, 100, 60, 140]
        change = [130, 70, 100, 140, 60]
        self.assertEqual(compare.host_verdict(base, change, "lower", 0.1), compare.UNRESOLVED)

    def test_drift_shared_by_each_pair_cancels(self):
        base = [100, 120, 140, 160, 180]
        change = [101, 119, 141, 161, 179]
        self.assertEqual(compare.host_verdict(base, change, "lower", 0.1), compare.UNCHANGED)

    def test_higher_is_better_direction(self):
        base = [100, 101, 99, 100, 100]
        self.assertEqual(compare.host_verdict(base, [x + 20 for x in base], "higher", 0.1),
                         compare.IMPROVED)
        self.assertEqual(compare.host_verdict(base, [x - 20 for x in base], "higher", 0.1),
                         compare.REGRESSED)


class SimAndErrors(unittest.TestCase):
    def test_sim_compares_exactly(self):
        self.assertEqual(compare.sim_verdict([5, 5], [5, 5], "lower"), compare.UNCHANGED)
        self.assertEqual(compare.sim_verdict([5, 5], [5, 5.000001], "lower"), compare.REGRESSED)
        self.assertEqual(compare.sim_verdict([5, 5], [4, 5], "lower"), compare.IMPROVED)

    def test_any_error_rise_fails(self):
        self.assertEqual(compare.error_verdict([0, 0], [0, 0.001]), compare.REGRESSED)
        self.assertEqual(compare.error_verdict([0, 0], [0, 0]), compare.UNCHANGED)


def report(workload, pass_ms, slowdown, error_rate=0.0):
    return {"workload": workload, "error_rate": error_rate, "metrics": {
        "pass_ms_p50": {"value": pass_ms, "unit": "ms", "better": "lower", "class": "host",
                        "bound": 0.1},
        "sim_slowdown_max": {"value": slowdown, "unit": "ratio", "better": "lower",
                             "class": "sim", "bound": 0.1},
        "trace.pass_ms": {"value": pass_ms, "unit": "ms", "better": "lower", "class": "host",
                          "bound": 0},
    }}


class EndToEnd(unittest.TestCase):
    def run_main(self, base, change):
        with tempfile.TemporaryDirectory() as d:
            paths = {}
            for side, docs in (("base", base), ("change", change)):
                paths[side] = []
                for i, doc in enumerate(docs):
                    p = os.path.join(d, f"{side}{i}.json")
                    with open(p, "w") as f:
                        json.dump({"workloads": {doc["workload"]: doc}}, f)
                    paths[side].append(p)
            with open(os.devnull, "w") as null:
                stdout, sys.stdout = sys.stdout, null
                try:
                    return compare.main(["--base", *paths["base"], "--change", *paths["change"]])
                finally:
                    sys.stdout = stdout

    def test_a_a_passes(self):
        runs = [report("w", 100 + i % 3, 2.5) for i in range(5)]
        self.assertEqual(self.run_main(runs, runs), 0)

    def test_unbounded_metrics_are_not_compared(self):
        base = [report("w", 100, 2.5) for _ in range(5)]
        rows = compare.compare([{"w": r} for r in base], [{"w": r} for r in base])
        self.assertNotIn("trace.pass_ms", [r[1] for r in rows])

    def test_sim_drift_fails(self):
        base = [report("w", 100, 2.5) for _ in range(5)]
        change = [report("w", 100, 2.6) for _ in range(5)]
        self.assertEqual(self.run_main(base, change), 1)

    def test_error_rise_fails(self):
        base = [report("w", 100, 2.5) for _ in range(5)]
        change = [report("w", 100, 2.5, error_rate=0.1)] + base[1:]
        self.assertEqual(self.run_main(base, change), 1)


if __name__ == "__main__":
    unittest.main()
