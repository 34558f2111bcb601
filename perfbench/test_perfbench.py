#!/usr/bin/env python3
"""Smoke test of the pipeline benchmark itself, at tiny sizes.

    python3 perfbench/test_perfbench.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric and writes its trace, and that all output checks pass.
It then corrupts one output per run (--inject-fault) and requires the
benchmark to notice: a broken output check makes this test fail.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def invoke(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None, done.stdout


class PerfbenchSmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("building came_perfbench failed")

    def assert_metrics(self, result, declared):
        for m in declared:
            self.assertIn(m["name"], result["metrics"])
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        self.assertEqual(len(result["metrics"]), len(declared))

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = invoke(w, "0")
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_runs_report_every_layer_metric_and_a_trace(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = invoke(w, "1")
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"])
                self.assert_metrics(result, SPEC["per_layer"])
                trace = os.path.join(run.OUT_DIR, f"{w}_seed3_trace.trace.json")
                with open(trace, encoding="utf-8") as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(any(e["name"] == "setup" for e in events))
                self.assertTrue(all("parent" in e["args"] for e in events))

    def test_corrupted_outputs_fail_the_run(self):
        for w in run.WORKLOADS:
            for fault in ("loss", "topk"):
                with self.subTest(workload=w, fault=fault):
                    code, result, out = invoke(w, "0", "--inject-fault", fault)
                    self.assertNotEqual(code, 0, out)
                    self.assertFalse(result["correct"], out)
                    self.assertGreater(result["failed"], 0)
                    self.assertIn("FAILED", out)


if __name__ == "__main__":
    unittest.main()
