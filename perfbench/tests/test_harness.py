#!/usr/bin/env python3
"""Unit tests of the benchmark package.

    python3 perfbench/tests/test_harness.py

Checks the shape of BENCHMARK.json and perfbench/layer_map.json against the
benchmark contract, builds and runs the C++ harness test
(tests/harness_test.cpp: percentiles, open-loop accounting, metric names,
span self times, answer digests), and checks that run.py refuses a
directory holding no library sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load(path):
    with open(path) as f:
        return json.load(f)


class BenchmarkJsonShape(unittest.TestCase):
    def setUp(self):
        self.b = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_top_level_keys(self):
        self.assertEqual(set(self.b), {"command", "paths", "run_seconds",
                                       "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")),
                             64 * 1024)

    def test_command_and_paths(self):
        cmd, paths = self.b["command"], self.b["paths"]
        self.assertTrue(1 <= len(cmd) <= 32)
        self.assertTrue(all(isinstance(c, str) and len(c) <= 200 for c in cmd))
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        for c in cmd[1:]:
            self.assertFalse(c.startswith("/") or ".." in c.split("/"))
            if os.path.exists(os.path.join(ROOT, c)):
                self.assertTrue(any(c == p or c.startswith(p + "/") for p in paths),
                                c + " is outside paths")

    def test_workloads(self):
        w = self.b["workloads"]
        self.assertTrue(2 <= len(w) <= 8)
        for x in w:
            self.assertEqual(set(x), {"name", "why"})
            self.assertRegex(x["name"], NAME)
            self.assertTrue(0 < len(x["why"]) <= 200 and "\n" not in x["why"])
        self.assertEqual([x["name"] for x in w], list(run.WORKLOADS))

    def test_metrics(self):
        e2e, layer = self.b["end_to_end"], self.b["per_layer"]
        self.assertTrue(1 <= len(e2e) <= 16)
        self.assertTrue(1 <= len(layer) <= 128)
        names = [m["name"] for m in e2e + layer]
        self.assertEqual(len(names), len(set(names)))
        for m in e2e:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in e2e + layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in e2e if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in e2e))

    def test_time_budget(self):
        # 4 + 22 x workloads runs, each the timed seconds plus set-up,
        # probes and checks, and two builds, must fit in 3420 s.
        s = self.b["run_seconds"]
        self.assertTrue(isinstance(s, int) and 1 <= s <= 60)
        runs = 4 + 22 * len(self.b["workloads"])
        self.assertLessEqual(runs * (s + 10) + 2 * 300, 3420)

    def test_layer_map_covers_every_per_layer_metric(self):
        lm = load(os.path.join(PERFBENCH, "layer_map.json"))["metrics"]
        self.assertEqual(set(lm), {m["name"] for m in self.b["per_layer"]})
        workloads = {w["name"] for w in self.b["workloads"]}
        e2e = {m["name"] for m in self.b["end_to_end"]} | {"modeled_ms"}
        for name, entry in lm.items():
            self.assertEqual(set(entry), {"layer", "moves", "no_change"}, name)
            for w, metrics in entry["moves"].items():
                self.assertIn(w, workloads, name)
                self.assertTrue(set(metrics) <= e2e, name)
            self.assertTrue(set(entry["no_change"]) <= workloads, name)
            self.assertFalse(set(entry["no_change"]) & set(entry["moves"]), name)


class HarnessBinary(unittest.TestCase):
    def test_harness_test_passes(self):
        build_dir = run.build(ROOT, target="perfbench_harness_test")
        r = subprocess.run([os.path.join(build_dir, "perfbench_harness_test")],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


class RefusesEmptyCheckout(unittest.TestCase):
    def test_no_sources_no_result(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(PERFBENCH, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmd = load(os.path.join(d, "BENCHMARK.json"))["command"]
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            r = subprocess.run(cmd + ["--workload", "lsq_dd", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"],
                               cwd=d, env=env, capture_output=True, text=True,
                               timeout=180)
            self.assertNotEqual(r.returncode, 0)
            self.assertEqual(r.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
