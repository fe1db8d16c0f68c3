"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The self-check runs every workload, untraced and traced, at a tiny size
(about 20 s after the first build) and fails if any metric is missing,
non-finite or unmeasured, or if any correctness oracle fails.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def catalogue():
    """(name, unit) pairs of the C++ metric catalogue, in order."""
    with open(os.path.join(PERFBENCH, "cpp", "report.cpp")) as source:
        text = source.read()
    return re.findall(r'\{"([^"]+)", "([^"]+)"\},', text)


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            self.spec = json.load(handle)

    def test_shape(self):
        self.assertEqual(
            set(self.spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"})
        self.assertIn(self.spec["run_seconds"], range(1, 61))
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        names = [w["name"] for w in self.spec["workloads"]]
        names += [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for workload in self.spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        for metric in self.spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in self.spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")

    def test_matches_the_program_catalogue(self):
        declared = [(m["name"], m["unit"])
                    for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(declared, catalogue())
        for _, unit in declared:
            self.assertRegex(unit, UNIT)


class SelfCheckTest(unittest.TestCase):
    def test_self_check_passes(self):
        run = subprocess.run(
            [sys.executable, os.path.join(PERFBENCH, "run.py"), "--self-check"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(run.returncode, 0, run.stdout[-4000:] + run.stderr[-4000:])
        self.assertIn("self-check: ok", run.stdout)


if __name__ == "__main__":
    unittest.main()
