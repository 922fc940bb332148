#!/usr/bin/env python3
"""The benchmark's own small-size test.

Runs every workload of BENCHMARK.json at tiny sizes through perfbench/run.py,
untraced and traced, and checks that:

- the last stdout line is the JSON result, with exactly the contract's keys;
- every end_to_end metric (untraced) and every per_layer metric (traced) is
  printed, with the unit BENCHMARK.json gives it, as a finite number;
- correct is true, failed is 0 and the printed error_rate is 0;
- the perturbed-reference self-check fired.

One workload also runs on a held-out seed, so the workloads are not tied to
the default seed. Run from the root of the checkout:

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
SEED = 7
HELD_OUT_SEED = 20261016

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class PerfbenchTest(unittest.TestCase):

    def check_run(self, workload, seed, trace):
        proc = run(workload, seed, trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            self.assertRegex(proc.stdout, r"\n  %s +\S+ %s\n" % (
                re.escape(m["name"]), re.escape(m["unit"])))
        self.assertRegex(proc.stdout, r"\n  error_rate +0\.000000 ratio")
        self.assertIn("self-check: perturbed reference reported as a mismatch",
                      proc.stdout)
        return result

    def test_workloads_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result = self.check_run(w["name"], SEED, 0)
                self.assertGreater(result["metrics"]["setup_s"]["value"], 0)

    def test_workloads_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], SEED, 1)

    def test_held_out_seed(self):
        self.check_run(SPEC["workloads"][0]["name"], HELD_OUT_SEED, 0)

    def test_pinned_environment(self):
        env = dict(os.environ, DPE_TRACE="1")
        proc = subprocess.run(
            RUN + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0", "--tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("DPE_TRACE", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
