#!/usr/bin/env python3
"""qbench's own tests, on the fast smoke mode (tiny sizes, 1-second windows).

    python3 qbench/test_qbench.py

They check that every run emits exactly the metrics BENCHMARK.json names,
with their units, and that run.py refuses a missing, unknown or mis-united
metric; that a corrupted expected answer fails the run; that the 1-worker
and 4-worker smc answers agree; and that the benchmark refuses to run
without the quanta sources next to it.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as qbench_run  # noqa: E402


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "qbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke", *extra]
    out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    return out.returncode, out.stdout.splitlines()


class QbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def test_every_metric_emitted_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = [(m["name"], m["unit"]) for m in self.bench[key]]
            for workload in self.workloads:
                with self.subTest(workload=workload, trace=trace):
                    rc, lines = run(workload, trace)
                    self.assertEqual(rc, 0, lines[-3:])
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    got = [(n, m["unit"]) for n, m in result["metrics"].items()]
                    self.assertEqual(got, want)
                    header = [l for l in lines if l.startswith("calibration ")]
                    self.assertEqual(len(header), 1)
                    fields = json.loads(header[0][len("calibration "):])
                    for field in ("usable_cores", "load_start", "load_end",
                                  "loaded", "build_type", "compiler", "git_rev"):
                        self.assertIn(field, fields)

    def test_catalogue_refuses_a_wrong_metric_set(self):
        full = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                for m in self.bench["end_to_end"]}
        self.assertEqual(qbench_run.conform({"metrics": dict(full)}, False), [])
        missing = dict(full)
        del missing["setup_s"]
        unknown = dict(full, bogus={"value": 1.0, "unit": "s"})
        wrong_unit = dict(full, setup_s={"value": 1.0, "unit": "ms"})
        for metrics in (missing, unknown, wrong_unit):
            with self.subTest(metrics=sorted(metrics)):
                self.assertNotEqual(
                    qbench_run.conform({"metrics": metrics}, False), [])
        layer = self.bench["per_layer"][0]
        result = {"metrics": {layer["name"]: {"value": 2.0,
                                              "unit": layer["unit"]}}}
        self.assertEqual(qbench_run.conform(result, True), [])
        self.assertEqual(len(result["metrics"]), len(self.bench["per_layer"]))
        self.assertEqual(result["metrics"][layer["name"]]["value"], 2.0)

    def test_corrupted_expected_answer_fails_the_run(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                rc, lines = run(workload, 0, "--corrupt-expected")
                self.assertEqual(rc, 1)
                result = json.loads(lines[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_smc_answers_identical_at_1_and_4_workers(self):
        rc, lines = run("smc-estimate", 0)
        self.assertEqual(rc, 0)
        self.assertTrue(any("1-worker answer" in l and "identical to 4 workers"
                            in l for l in lines), lines)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(ROOT, ".bench_run", "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "qbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines = run("mc-exhaustive", 0, cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
