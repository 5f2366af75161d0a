#!/usr/bin/env python3
"""Tests of the benchmark itself, on the toy-scale mode of each workload.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first test builds the benchmark.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("tweets", "scale", "live", "bounds")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload, trace, *extra, seed=3, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    if check and proc.returncode != 0:
        raise AssertionError(f"run.py failed:\n{proc.stderr}")
    return proc


def parse(proc):
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    reported = {}  # the benchmark binary's own `metric` lines
    digest = None
    for line in lines[:-1]:
        fields = line.split()
        if fields[:1] == ["metric"]:
            reported[fields[1]] = float(fields[2])
        elif line.startswith("# inputs digest="):
            digest = fields[2]
    return result, reported, digest


class ToyWorkloads(unittest.TestCase):
    def check_result(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        self.assertGreaterEqual(result["attempted"], 1)

    def test_end_to_end_metrics_emitted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, reported, _ = parse(run_bench(workload, 0))
                self.check_result(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(reported["failed_frac"], 0.0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)

    def test_every_per_layer_metric_measured(self):
        measured = set()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, reported, _ = parse(run_bench(workload, 1))
                self.check_result(result, SPEC["per_layer"])
                self.assertTrue(result["correct"])
                self.assertIn("trace.overhead", reported)
                measured |= set(reported)
        self.assertEqual({m["name"] for m in SPEC["per_layer"]} - measured,
                         set())

    def test_planted_nonfinite_belief_is_counted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, reported, _ = parse(
                    run_bench(workload, 0, "--plant-nonfinite"))
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(reported["failed_frac"], 0.0)

    def test_seed_determines_inputs(self):
        _, _, a = parse(run_bench("bounds", 0, seed=5))
        _, _, b = parse(run_bench("bounds", 0, seed=5))
        _, _, c = parse(run_bench("bounds", 0, seed=6))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "tmp", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tweets",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
