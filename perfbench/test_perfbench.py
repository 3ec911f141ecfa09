"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

The smoke test builds the benchmark and runs every workload briefly
(run.py --smoke): each answer is checked by its workload's oracle and the
seed-determined counts must repeat exactly between two runs.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return json.load(f)


class Definition(unittest.TestCase):
    """BENCHMARK.json and workloads.json describe the same benchmark."""

    def setUp(self):
        self.bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        self.workloads = load(os.path.join(HERE, "workloads.json"))

    def test_every_workload_has_parameters(self):
        for w in self.bench["workloads"]:
            self.assertIn("params", self.workloads["workloads"][w["name"]])

    def test_every_per_layer_metric_names_what_it_should_move(self):
        predictions = self.workloads["layer_predictions"]
        for m in self.bench["per_layer"]:
            self.assertIn(m["name"], predictions)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Smoke(unittest.TestCase):
    def test_smoke(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
        self.assertTrue(proc.stdout.rstrip().endswith("smoke: ok"))


if __name__ == "__main__":
    unittest.main()
