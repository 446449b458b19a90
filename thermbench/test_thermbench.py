#!/usr/bin/env python3
"""Tests of the thermctl benchmark itself, on tiny inputs.

    python3 thermbench/test_thermbench.py

Run from the repository root. Every workload runs at --scale tiny (the
same code on small inputs), untraced and traced; the red tests show that a
wrong or missing recorded digest or a refused daemon reply fails the run,
and that the benchmark refuses to run without the library sources.
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
WORKLOADS = ["fleet_100k", "paper_sweep", "daemon_ops"]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run(workload, trace=0, extra=(), cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "thermbench", "run.py")] +
        ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def digests_file():
    """A scratch digests file under the build directory, removed on close."""
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    return tempfile.NamedTemporaryFile("w", suffix=".txt", dir=scratch)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check_metrics(self, proc, spec_metrics):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec_metrics])
        for m in spec_metrics:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            # The human-readable report names every metric with its unit too.
            self.assertRegex(proc.stdout, rf"\n  {m['name']} +\S+ {m['unit']}")
        return result

    def test_end_to_end_metrics_and_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload)
                result = self.check_metrics(proc, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0.0, name)
                self.assertIn("all output checks passed", proc.stdout)
                self.assertIn("fingerprint: ", proc.stdout)
                self.assertRegex(proc.stdout, r"node_steps_per_s .*\(n=\d+\)")
                if workload != "daemon_ops":
                    self.assertRegex(proc.stdout, r"digest [0-9a-f]{16}, recorded [0-9a-f]{16}")

    def test_traced_run_prints_layers_and_writes_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, trace=1)
                result = self.check_metrics(proc, SPEC["per_layer"])
                self.assertIn("trace_overhead_frac", result["metrics"])
                self.assertIn("layer self time", proc.stdout)
                path = os.path.join(ROOT, proc.stdout.split("spans written to ")[1].split(" ")[0])
                with open(path, encoding="utf-8") as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0.0)


class RedRuns(unittest.TestCase):
    def test_wrong_recorded_digest_fails_the_run(self):
        with digests_file() as digests:
            digests.write("paper_sweep tiny 1 0123456789abcdef\n")
            digests.flush()
            proc = run("paper_sweep", extra=["--digests", digests.name])
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_of(proc)["correct"])
        self.assertIn("digest differs from the recorded one", proc.stdout)

    def test_unrecorded_seed_fails_the_run(self):
        with digests_file() as digests:
            proc = run("paper_sweep", extra=["--digests", digests.name])
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_of(proc)["correct"])
        self.assertIn("no digest recorded", proc.stdout)

    def test_refused_reply_fails_the_run(self):
        proc = run("daemon_ops", extra=["--inject-refused-reply"])
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("malformed, dropped or refused reply", proc.stdout)

    def test_refuses_to_run_without_the_library(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "thermbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("fleet_100k", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip().endswith("}"))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
