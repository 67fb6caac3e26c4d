#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny runs (--scale 0.05 or 0.1).

    python3 perfbench/test_bench.py

Run from anywhere; takes about a minute. Covers metric extraction in
both modes, byte-identical deterministic metrics across invocations,
the correctness gate tripping on a forced mismatch, and the refusal to
run outside a full checkout.
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
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = ["--seconds", "0", "--scale", "0.05"]


def bench(*args, cwd=ROOT):
    out = subprocess.run(
        ["python3", os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    return out.returncode, lines


def result(lines):
    return json.loads(lines[-1])


def deterministic(lines):
    [line] = [l for l in lines if l.startswith("deterministic ")]
    return line


class Extraction(unittest.TestCase):
    def check_metrics(self, res, declared):
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_end_to_end_metrics(self):
        code, lines = bench("--workload", "tpcc_2pc", "--seed", "3", "--trace", "0", *TINY)
        self.assertEqual(code, 0, lines)
        res = result(lines)
        self.check_metrics(res, SPEC["end_to_end"])
        for name, m in res["metrics"].items():
            self.assertGreater(m["value"], 0, name)
        # One host-speed probe before the first repetition and one after each.
        [probes] = [l for l in lines if l.startswith("reference slowdown")]
        slowdowns = [float(x) for x in probes.split(")")[1].split()]
        repetitions = [l for l in lines if l.startswith("  tpcc_2pc:")]
        self.assertEqual(len(slowdowns), len(repetitions) + 1)
        for x in slowdowns:
            self.assertGreater(x, 0)

    def test_per_layer_metrics(self):
        code, lines = bench("--workload", "tpcc_2pc", "--seed", "3", "--trace", "1", *TINY)
        self.assertEqual(code, 0, lines)
        res = result(lines)
        self.check_metrics(res, SPEC["per_layer"])
        metrics = res["metrics"]
        # 2PC never routes or plans.
        for name in metrics:
            if name.startswith(("core.router.", "core.planner.")):
                self.assertEqual(metrics[name]["value"], 0, name)
        self.assertGreater(metrics["sim.network.msgs_per_txn"]["value"], 0)
        self.assertGreater(metrics["store.kvstore.touched_keys"]["value"], 0)

    def test_per_layer_lion_batch(self):
        # 0.1 × 12 simulated seconds: long enough for one planner tick.
        code, lines = bench("--workload", "hotspot_lion_batch", "--seed", "3",
                            "--trace", "1", "--seconds", "0", "--scale", "0.1")
        self.assertEqual(code, 0, lines)
        metrics = result(lines)["metrics"]
        self.assertGreater(metrics["core.router.calls"]["value"], 0)
        self.assertGreater(metrics["core.planner.rounds"]["value"], 0)
        self.assertGreater(metrics["protocols.batch.conflict_ns_per_txn"]["value"], 0)
        self.assertEqual(metrics["store.kvstore.touched_keys"]["value"], 0)


class Determinism(unittest.TestCase):
    def test_two_invocations_agree(self):
        args = ["--workload", "ycsb_skew_lion", "--seed", "5", "--trace", "0", *TINY]
        code1, lines1 = bench(*args)
        code2, lines2 = bench(*args)
        self.assertEqual((code1, code2), (0, 0))
        self.assertEqual(deterministic(lines1), deterministic(lines2))

    def test_seeds_matter(self):
        base = ["--workload", "ycsb_skew_lion", "--trace", "0", "--no-audit", *TINY]
        _, a = bench("--seed", "5", *base)
        _, b = bench("--seed", "6", *base)
        _, c = bench("--seed", "5", "--cluster-seed", "6", *base)
        self.assertNotEqual(deterministic(a), deterministic(b))
        self.assertNotEqual(deterministic(a), deterministic(c))

    def test_forced_mismatch_trips_gate(self):
        code, lines = bench("--workload", "tpcc_2pc", "--seed", "3", "--trace", "0",
                            "--inject-mismatch", "--no-audit", *TINY)
        self.assertNotEqual(code, 0)
        res = result(lines)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertTrue(any("deterministic metrics differ" in l for l in lines))


class Standalone(unittest.TestCase):
    def test_refuses_without_the_repository(self):
        # A scratch checkout inside the build directory, so the test
        # writes nothing outside the repository.
        scratch = os.path.join(ROOT, "_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("_build", "__pycache__"))
            code, lines = bench("--workload", "tpcc_2pc", "--seed", "1", "--trace", "0",
                                *TINY, cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
