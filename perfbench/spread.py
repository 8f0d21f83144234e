#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 0-9

The spread is the distance between the first and third quartiles as a share
of the median.  For each end-to-end metric it is compared with the bound in
BENCHMARK.json; a steady benchmark keeps it below a third of the bound.
Runs go one at a time, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: not correct (%d failed)" % (seed, result["failed"]))
        runs.append(result["metrics"])
        print("seed %d done" % seed, flush=True)

    worst = 0.0
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        s = stats.spread(values) if len(values) > 1 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, s / bound)
            flag = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER BOUND")
        print("%-28s median %14.6f  spread %6.3f  bound %-5s %s"
              % (name, statistics.median(values), s, bound if bound is not None else "-", flag))
        print("    " + " ".join("%.4g" % v for v in values))
    if bounds:
        print("worst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    sys.exit(main())
