#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a source checkout:

    python3 perfbench/test_run.py

Runs every workload at its tiny size, traced and untraced, and checks that
each metric BENCHMARK.json names is printed with its unit and that every
operation passes its checks. Then checks that the reference check rejects
an operation whose table hash differs from its recorded one, and that a
seed with no recorded reference is refused.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SEED = run.DEFAULT_SEED


def bench(workload, trace, seed=SEED):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.workloads = [w["name"] for w in spec["workloads"]]
        cls.units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                     1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    def test_every_metric_printed_with_unit(self):
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1 + trace)
                    self.assertEqual(set(result["metrics"]),
                                     set(self.units[trace]))
                    for name, unit in self.units[trace].items():
                        m = result["metrics"][name]
                        self.assertEqual(m["unit"], unit, name)
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0.0, name)
                    host = [l for l in lines if l.startswith("host: ")]
                    self.assertEqual(len(host), 1)
                    self.assertEqual(
                        set(json.loads(host[0][6:])),
                        {"nproc", "pinned_cpu", "kernel", "build_type"})

    def test_wrong_hash_is_rejected(self):
        program = run.build()
        rec, reason = run.run_op(program, "mixed-serial", SEED, "tiny", "run")
        self.assertIsNone(reason)
        ref = run.load_references("tiny", "mixed-serial", SEED)
        self.assertEqual(run.check(rec, ref, None, None), [])
        wrong = dict(ref, table_hash="%016x" % (int(ref["table_hash"], 16) ^ 1))
        self.assertTrue(run.check(rec, wrong, None, None))

    def test_unrecorded_seed_is_refused(self):
        unrecorded = 7  # the tiny size records only the default and held-out
        self.assertNotIn(run.config_seed(unrecorded),
                         (run.DEFAULT_SEED, run.HELD_OUT_SEED))
        proc = bench("mixed-serial", 0, seed=unrecorded)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        self.assertIn("no reference recorded", proc.stderr)


if __name__ == "__main__":
    unittest.main()
