#!/usr/bin/env python3
"""Smoke test of the benchmark harness: every workload it runs, untraced and
traced, a few ops each. Every metric BENCHMARK.json names, and the unbounded
end-to-end figures (p50, p99, fail rate), must be present, finite and in
their unit, and no op may fail (fail_rate == 0).

    python3 perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402  (every workload the harness runs)

SEED = 7
UNBOUNDED = ("p50_ms", "p99_ms", "fail_rate")


class SmokeTest(unittest.TestCase):
    def test_every_metric_present_and_finite_with_no_failures(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", workload,
                         "--seed", str(SEED), "--trace", str(trace), "--smoke"],
                        cwd=ROOT, capture_output=True, text=True, timeout=900)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    for m in spec[kind]:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float), m["name"])
                        self.assertTrue(math.isfinite(got["value"]), m["name"])
                    record = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
                    detail = json.loads(record.read_text())["detail"]
                    self.assertEqual(detail["fail_rate"], 0)
                    if trace == 0:
                        for name in UNBOUNDED:
                            self.assertTrue(math.isfinite(detail[name]), name)


if __name__ == "__main__":
    unittest.main()
