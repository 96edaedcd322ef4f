#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the program like run.py does, then check that a flipped pinned
digest is a failure, that every printed metric name and unit is
BENCHMARK.json's, that the seed alone decides the generated inputs (and
never the message counts), that the direct and replayed allreduce agree
bit for bit, and that compare.py reaches each of its verdicts.  About two
minutes, most of it the one traced run.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def perfbench(*args, digests=None):
    """Run the built program; returns (exit code, stdout lines)."""
    cmd = [str(run.BINARY), *args,
           "--digests", str(digests or HERE / "digests.txt")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def print_mode(*args):
    proc = subprocess.run([str(run.BINARY), "--print", *args],
                          stdout=subprocess.PIPE, text=True, timeout=600,
                          check=True)
    return proc.stdout.splitlines()


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")

    def test_flipped_digest_is_a_failure(self):
        pinned = (HERE / "digests.txt").read_text().splitlines()
        flipped = []
        for line in pinned:
            if line.startswith("allreduce_direct\t"):
                key, digest = line.rsplit("\t", 1)
                line = key + "\t" + format(int(digest, 16) ^ 1, "016x")
            flipped.append(line)
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         dir=run.BUILD) as f:
            f.write("\n".join(flipped) + "\n")
            f.flush()
            code, out = perfbench("--workload", "allreduce_direct",
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0", digests=f.name)
        result = json.loads(out[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any(l.startswith("failed_share 1 ") for l in out))

    def test_names_and_units_match_benchmark_json(self):
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            code, out = perfbench("--workload", w["name"], "--seed", "1",
                                  "--seconds", "1", "--trace", "0")
            result = json.loads(out[-1])
            self.assertEqual(code, 0, w["name"])
            self.assertTrue(result["correct"], w["name"])
            self.assertEqual({k: v["unit"] for k, v in
                              result["metrics"].items()}, want, w["name"])
        # One traced run: the layer probes are the same on every workload.
        code, out = perfbench("--workload", "ring1k_direct", "--seed", "1",
                              "--seconds", "1", "--trace", "1")
        result = json.loads(out[-1])
        self.assertEqual(code, 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in SPEC["per_layer"]})
        self.assertIn("trace.overhead.ring1k_direct", "\n".join(out))

    def test_seed_decides_inputs_not_message_counts(self):
        for w in ("ring1k_direct", "pingpong_functional"):
            first = print_mode("inputs", "--workload", w, "--seed", "1")
            again = print_mode("inputs", "--workload", w, "--seed", "1")
            other = print_mode("inputs", "--workload", w, "--seed", "2")
            self.assertEqual(first, again, w)
            self.assertNotEqual(first[0], other[0], w)  # the inputs line
            self.assertEqual(first[1:], other[1:], w)   # message counts

    def test_direct_and_replay_agree_bit_for_bit(self):
        out = dict(line.split() for line in print_mode("identity"))
        self.assertEqual(out["direct"], out["replay"])


class Verdicts(unittest.TestCase):
    def test_each_verdict(self):
        base = [100.0, 101.0, 99.0, 100.5, 99.5]
        faster = [90.0, 90.5, 89.5, 90.2, 89.8]
        pairs = list(zip(base, faster))
        self.assertEqual(compare.verdict(base, faster, pairs, "lower", 0.1)[0],
                         "improved")
        slower = [130.0, 131.0, 129.0, 130.5, 129.5]
        self.assertEqual(compare.verdict(base, slower, list(zip(base, slower)),
                                         "lower", 0.1)[0], "worse")
        same = [100.2, 100.8, 99.2, 100.1, 99.9]
        self.assertEqual(compare.verdict(base, same, list(zip(base, same)),
                                         "lower", 0.1)[0], "no worse")
        noisy = [60.0, 140.0, 100.0, 70.0, 130.0]
        self.assertEqual(compare.verdict(base, noisy, list(zip(base, noisy)),
                                         "lower", 0.1)[0], "unresolved")


if __name__ == "__main__":
    unittest.main()
