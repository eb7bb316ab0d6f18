"""Smoke test of the benchmark's own code: every workload at a tiny size.

    python3 bench/smoke.py

Checks that each workload, traced and untraced, emits exactly the metrics
BENCHMARK.json declares with no failed job, and that the recorded layer
predictions name only known workloads and declared metrics.
"""

import json
import sys
import unittest
from pathlib import Path

import run
import workloads

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PREDICTIONS = json.loads(Path(__file__).with_name("predictions.json").read_text(encoding="utf-8"))


class SmokeTest(unittest.TestCase):
    def check(self, trace_on, key):
        want = {m["name"]: m["unit"] for m in DECLARED[key]}
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                result = run.run_workload(name, seed=7, seconds=0.5, trace_on=trace_on,
                                          size="tiny")
                self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for metric in result["metrics"].values():
                    self.assertIsInstance(metric["value"], (int, float))

    def test_untraced_emits_end_to_end_metrics(self):
        self.check(False, "end_to_end")

    def test_traced_emits_per_layer_metrics(self):
        self.check(True, "per_layer")

    def test_predictions_name_declared_metrics(self):
        names = {m["name"] for key in ("end_to_end", "per_layer") for m in DECLARED[key]}
        self.assertLessEqual({w["name"] for w in DECLARED["workloads"]}, set(workloads.NAMES))
        self.assertEqual(set(PREDICTIONS["workloads"]), set(workloads.NAMES))
        for pred in PREDICTIONS["layers"]:
            self.assertIn(pred["layer"], run.LAYERS + ("trace",))
            self.assertLessEqual(set(pred["metrics"]), names)
            for move in pred["moves"]:
                self.assertIn(move["metric"], names)
                self.assertIn(move["workload"], workloads.NAMES)


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    unittest.main()
