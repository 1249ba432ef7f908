#!/usr/bin/env python3
"""Tests of the benchmark itself.

Run from the root of a checkout:
    python3 perfbench/test_perfbench.py

Builds perfbench like run.py does, runs the decorator's unit tests
(perfbench --selftest: handler self time = handler time minus nested sends,
DPR wait, span coverage), and smoke-runs every workload for one second,
untraced and traced, checking the output contract against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
BINARY = None


def binary():
    global BINARY
    if BINARY is None:
        BINARY = run.build(ROOT, os.path.join(ROOT, ".bench_build", "perfbench"))
    return BINARY


def run_workload(workload, trace):
    out = subprocess.run(
        [binary(), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    return out.returncode, out.stdout


class SelfTest(unittest.TestCase):
    def test_decorator_arithmetic(self):
        out = subprocess.run([binary(), "--selftest"], capture_output=True, text=True, timeout=60)
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("PASS", out.stdout)


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        rc, stdout = run_workload(workload, trace)
        self.assertEqual(rc, 0, stdout)
        result = json.loads(stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, stdout)
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
        metrics = result["metrics"]
        # Every declared metric of the run's kind, on every workload.
        self.assertEqual(set(metrics), set(declared))
        if trace == 0:
            for name, m in metrics.items():
                self.assertGreater(m["value"], 0, name)
        for name, m in metrics.items():
            self.assertEqual(m["unit"], declared[name], name)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_bypassed_layers_absent(self):
        # Layer details are printed as "# layer <name> ..." lines, only for
        # the layers a workload loads.
        def details(workload):
            _, stdout = run_workload(workload, 1)
            return [line.split()[2] for line in stdout.splitlines() if line.startswith("# layer ")]

        metrics = details("dense-tcp")
        self.assertIn("net.codec.serialize_us", metrics)
        self.assertFalse([m for m in metrics if m.startswith(("replica.", "embed.", "net.inproc."))])
        metrics = details("sparse-zipf")
        self.assertIn("embed.pull_park_us", metrics)
        self.assertFalse([m for m in metrics if m.startswith(("ps.", "replica.", "net.codec."))])


if __name__ == "__main__":
    unittest.main()
