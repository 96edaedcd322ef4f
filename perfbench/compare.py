#!/usr/bin/env python3
"""Compare the benchmark runs of two commits.

Usage:

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the standard output of `perfbench/run.py`, one file
per run, named `<workload>.<seed>.out` for untraced runs and
`<workload>.trace.<seed>.out` for traced ones (see README.md for the loop
that collects them, alternating which commit runs first).  Runs of the
two directories with the same workload and seed form a pair.

For every workload and end-to-end metric of BENCHMARK.json it prints both
sides' median and quartiles, the share of pairs the change won (ties
count for neither) and a verdict:

  improved     the change won at least 9/10 of the pairs and the medians
               differ, in the better direction, by more than the base's
               spread between its quartiles;
  unresolved   a side's spread between quartiles, as a share of its
               median, is wider than the metric's bound, and not every
               change run is better than every base run;
  worse        the change's median is worse than the base's by more than
               the bound;
  no worse     otherwise: within the bound.

Per-layer metrics of the traced runs follow, as the change of the median.
The exit code is 1 if any verdict is `worse` or a run failed, else 0.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory):
    """{(workload, traced): {seed: result}} of the run outputs in a dir."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.out")):
        parts = path.stem.split(".")
        traced = len(parts) == 3 and parts[1] == "trace"
        if len(parts) not in (2, 3) or (len(parts) == 3 and not traced):
            continue
        lines = path.read_text().strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except ValueError:
            result = None
        runs[(parts[0], traced)][parts[-1]] = result
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, pairs, better, bound):
    """The verdict on one metric; `pairs` holds (base, change) values."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    won = wins / len(pairs) if pairs else 0.0
    if pairs and won >= 0.9 and sign * (bm - cm) > (b3 - b1):
        return "improved", won
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if spread > bound and not all_better:
        return "unresolved", won
    if sign * (cm - bm) > bound * abs(bm):
        return "worse", won
    return "no worse", won


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load_runs(argv[1]), load_runs(argv[2])
    status = 0
    header = (f"{'workload':<20} {'metric':<12} {'base q1/med/q3':>30} "
              f"{'change q1/med/q3':>30} {'won':>5}  verdict")
    print(header)
    print("-" * len(header))
    for w in [w["name"] for w in spec["workloads"]]:
        b_runs, c_runs = base.get((w, False), {}), change.get((w, False), {})
        failed = [s for s, r in list(b_runs.items()) + list(c_runs.items())
                  if not r or r.get("correct") is not True]
        if failed:
            print(f"{w:<20} failed or missing results (seeds {failed})")
            status = 1
            continue
        if not b_runs or not c_runs:
            print(f"{w:<20} no runs on {'base' if not b_runs else 'change'}")
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs.values()]
            cv = [r["metrics"][name]["value"] for r in c_runs.values()]
            pairs = [(b_runs[s]["metrics"][name]["value"],
                      c_runs[s]["metrics"][name]["value"])
                     for s in b_runs if s in c_runs]
            v, won = verdict(bv, cv, pairs, m["better"], m["bound"])
            status = 1 if v == "worse" else status
            fb = "/".join(f"{x:.4g}" for x in quartiles(bv))
            fc = "/".join(f"{x:.4g}" for x in quartiles(cv))
            print(f"{w:<20} {name:<12} {fb:>30} {fc:>30} {won:>5.0%}  "
                  f"{v} (bound {m['bound']:.0%}, {m['unit']})")
    print()
    print("per-layer (traced runs): median base -> change")
    for w in [w["name"] for w in spec["workloads"]]:
        b_runs = [r for r in base.get((w, True), {}).values()
                  if r and r.get("correct") is True]
        c_runs = [r for r in change.get((w, True), {}).values()
                  if r and r.get("correct") is True]
        if not b_runs or not c_runs:
            continue
        for m in spec["per_layer"]:
            name = m["name"]
            bm = statistics.median(r["metrics"][name]["value"] for r in b_runs)
            cm = statistics.median(r["metrics"][name]["value"] for r in c_runs)
            delta = f"{(cm - bm) / abs(bm):+.1%}" if bm else "n/a"
            print(f"{w:<20} {name:<44} {bm:>12.5g} -> {cm:<12.5g} "
                  f"{delta:>8} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
