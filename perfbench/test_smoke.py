#!/usr/bin/env python3
"""Smoke test of the yac benchmark.

    python3 perfbench/test_smoke.py

Runs the seconds-long smoke size (--smoke 1) of every workload in
BENCHMARK.json, untraced and traced, through perfbench/run.py, and checks
that each run passes its output check and prints every end-to-end or
per-layer metric with the unit BENCHMARK.json gives it. Run it from the
root of a checkout; the first call builds the benchmark.
"""

import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return done.returncode, done.stdout.rstrip("\n").split("\n")


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in wanted))
        printed = {line.split()[1]: line.split()[3] for line in lines
                   if line.startswith("metric ")}
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertEqual(printed[m["name"]], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertTrue(any(l.startswith("host {") for l in lines))
        self.assertTrue(any(l.startswith("engine {") for l in lines))


def add_case(workload, trace):
    setattr(SmokeTest, "test_%s_trace%d" % (workload, trace),
            lambda self: self.check(workload, trace))


for w in BENCHMARK["workloads"]:
    for t in (0, 1):
        add_case(w["name"], t)

if __name__ == "__main__":
    unittest.main()
