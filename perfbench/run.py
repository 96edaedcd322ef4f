#!/usr/bin/env python3
"""Build and run the ncsend host-time benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the simulator's libraries from src/) into
.bench_build/perfbench, runs one workload, echoes the program's output and
checks its last line: one JSON object with `correct`, `attempted`,
`failed` and `metrics`, whose names and units must be BENCHMARK.json's
end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).  The
exit code is the program's, or 1 if the build or that check fails; a
failed build prints no result.  The traced run writes its spans to
.bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
# The first build compiles the simulator; later runs only check it.
BUILD_TIMEOUT_S = 840
# A run measures for --seconds, plus set-up and one last unit.
RUN_GRACE_S = 120


def build():
    """Configure (once) and build the program; True on success."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode == 0


def expected_metrics(trace):
    """{name: unit} of the metrics a run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Empty if the result line has the contract's shape, else why not."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if result["correct"] is not True:
        return ""  # the program already reported the failure
    printed = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if printed != want:
        missing = sorted(set(want) - set(printed))
        extra = sorted(set(printed) - set(want))
        units = sorted(k for k in set(want) & set(printed)
                       if want[k] != printed[k])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"unexpected {extra}, wrong units {units}")
    return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    trace_dir = ROOT / ".bench_build" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--digests", str(HERE / "digests.txt"),
           "--trace-out",
           str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        print("perfbench: the program printed nothing", file=sys.stderr)
        return proc.returncode or 1
    problem = check_result(lines[-1], args.trace == "1")
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 1
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
