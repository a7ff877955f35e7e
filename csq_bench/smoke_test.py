#!/usr/bin/env python3
"""Quick end-to-end check of csq_bench: python3 smoke_test.py <path/to/csq_bench>

Runs every workload of BENCHMARK.json under CSQ_QUICK=1, untraced and
traced, in a scratch directory, and asserts:
  * every run exits 0 with error_rate 0. The binary compares each run with its
    reference, so this covers threaded_mix reproducing the serial engine and
    race_rw reproducing the analyzer-off runs, bit for bit;
  * the result object holds exactly BENCHMARK.json's metrics, declared alike;
  * every traced pass's ledger (layer shares, run overhead and residue) sums
    to its wall time, with a residue under 5%.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

with open(pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json") as _f:
    BENCHMARK = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
LEDGER = ["ledger.wl_frac", "ledger.rt_sync_frac", "ledger.rt_mem_frac", "ledger.rt_work_frac",
          "ledger.rt_thread_frac", "ledger.rt_run_overhead_frac", "ledger.serve_route_frac",
          "ledger.serve_shard_frac", "ledger.serve_pool_overhead_frac", "ledger.residue_frac"]
BINARY = None


class Smoke(unittest.TestCase):
    def run_bench(self, workload, trace):
        with tempfile.TemporaryDirectory() as d:
            p = subprocess.run([BINARY, "--workload", workload, "--seed", "1", "--seconds", "1",
                                "--trace", trace], cwd=d, capture_output=True, text=True,
                               env=dict(os.environ, CSQ_QUICK="1"), timeout=600)
            self.assertEqual(p.returncode, 0, p.stderr[-4000:])
            result = json.loads(p.stdout.strip().splitlines()[-1])
            name = f"BENCH_csq_bench_{'trace_' if trace == '1' else ''}{workload}.json"
            with open(os.path.join(d, name)) as f:
                report = json.load(f)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(report["error_rate"], 0)
        return result, report

    def assert_declared(self, declared, report):
        """BENCHMARK.json declares the metrics the binary reports, alike."""
        for m in declared:
            got = report["metrics"][m["name"]]
            self.assertEqual((got["unit"], got["better"]), (m["unit"], m["better"]), m["name"])
            if "bound" in m:
                self.assertEqual(got["bound"], m["bound"], m["name"])

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, report = self.run_bench(w, "0")
                self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCHMARK["end_to_end"]])
                self.assert_declared(BENCHMARK["end_to_end"], report)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_ledger_adds_up(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, report = self.run_bench(w, "1")
                self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCHMARK["per_layer"]])
                self.assert_declared(BENCHMARK["per_layer"], report)
                self.assertTrue(report["ledger_sums"])
                for s in report["ledger_sums"]:
                    self.assertAlmostEqual(s, 1.0, places=9)
                # One traced pass in quick mode: its medians are that pass.
                total = sum(result["metrics"][k]["value"] for k in LEDGER)
                self.assertAlmostEqual(total, 1.0, places=9)
                self.assertLess(result["metrics"]["ledger.residue_frac"]["value"], 0.05)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    BINARY = os.path.abspath(sys.argv.pop(1))
    unittest.main()
