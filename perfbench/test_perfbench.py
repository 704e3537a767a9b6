#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at a tiny size, untraced and traced, and checks that the
last output line carries exactly the metrics BENCHMARK.json names, each with
its unit; that regret repeats exactly for a fixed seed; and that the
correctness checker rejects a planted below-reserve quote and a planted tally
mismatch (non-zero exit, "correct": false).
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["replay", "serve-tcp", "broker-mt", "cold-tier"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed=1, trace=0, inject=None):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    if inject:
        argv += ["--inject", inject]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


class BenchmarkSpecTest(unittest.TestCase):
    def test_spec_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in SPEC["workloads"]], WORKLOADS)
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for w in SPEC["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_every_workload_untraced_and_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, trace=0)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                self.assertIn("machine: nproc=", proc.stdout)
                self.assertIn("report: ", proc.stdout)

                proc, result = run(workload, trace=1)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                if workload == "serve-tcp":
                    self.assertIn("waterfall quote p50", proc.stdout)

    def test_all_runs_every_workload(self):
        proc, result = run("all")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {w + "." + m["name"] for w in WORKLOADS for m in SPEC["end_to_end"]})

    def test_regret_repeats_for_a_seed(self):
        for workload in ["replay", "broker-mt"]:
            with self.subTest(workload=workload):
                first = run(workload, seed=5)[1]["metrics"]["regret_ratio"]["value"]
                second = run(workload, seed=5)[1]["metrics"]["regret_ratio"]["value"]
                self.assertEqual(first, second)

    def test_checker_rejects_planted_faults(self):
        cases = [("replay", "below_reserve"), ("broker-mt", "below_reserve"),
                 ("serve-tcp", "below_reserve"), ("cold-tier", "below_reserve"),
                 ("broker-mt", "tally_mismatch"), ("serve-tcp", "tally_mismatch"),
                 ("cold-tier", "tally_mismatch")]
        for workload, inject in cases:
            with self.subTest(workload=workload, inject=inject):
                proc, result = run(workload, inject=inject)
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                expected = "below reserve" if inject == "below_reserve" else "client counted"
                self.assertIn(expected, proc.stdout)


if __name__ == "__main__":
    unittest.main()
