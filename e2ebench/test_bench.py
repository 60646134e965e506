"""The benchmark's own test: every workload of BENCHMARK.json, at minimal
size and in both trace modes, must pass its output checks and emit exactly
the metrics BENCHMARK.json names, each with its declared unit.

Run through `python3 e2ebench/run.py --smoke`, which builds dmr_e2ebench and
sets BINARY and WORK_DIR.
"""
import json
import math
import subprocess
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BINARY = None
WORK_DIR = None


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(workload: str, trace: int) -> tuple:
    r = subprocess.run([str(BINARY), "--workload", workload, "--seed", "7", "--seconds", "1",
                        "--trace", str(trace), "--smoke", "--work-dir", str(WORK_DIR)],
                       stdout=subprocess.PIPE, text=True, timeout=170)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines, json.loads(lines[-1]) if lines else None


class BenchmarkSmoke(unittest.TestCase):
    def test_binary_rejects_bad_arguments(self):
        r = subprocess.run([str(BINARY), "--workload", "no-such-workload"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")

    def test_every_workload_emits_every_metric(self):
        s = spec()
        for w in s["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines, result = smoke_run(w["name"], trace)
                    self.assertEqual(code, 0, "\n".join(lines[-15:]))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in s[key]}
                    got = result["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, m in got.items():
                        self.assertEqual(m["unit"], want[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
