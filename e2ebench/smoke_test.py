#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny sizes.

    python3 e2ebench/smoke_test.py

For every workload in BENCHMARK.json, runs run.py --smoke with
tracing off and on, and checks that the printed metric names and units
are exactly the ones BENCHMARK.json declares, that the result is
correct and that no point failed. Also checks that the benchmark
refuses to run, without printing a result, when the simulator sources
are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run_bench(cwd, workload, trace):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {k: v["unit"] for k, v in result["metrics"].items()})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        if not trace:
            self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_workloads(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_refuses_without_sources(self):
        tmp_root = os.path.join(ROOT, ".bench_build", "tmp")
        os.makedirs(tmp_root, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=tmp_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, BENCH["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
