#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

    python3 perfbench/record.py

Runs every op of every workload once for each pinned seed, and every climb
rung the program reaches within RECORD_LIMIT_S, and writes their sha256
digests to perfbench/expected.json.  Run it only on a commit whose outputs
are known to be right: the benchmark then flags any op whose output changes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

PINNED_SEEDS = tuple(range(10))
RECORD_LIMIT_S = 30.0


def main():
    run.import_finsite()
    import climb
    import inputs

    fixed = {}
    seeded = {}
    goldens = {}

    for workload in inputs.WORKLOADS:
        seeded[workload] = {}
        fixed[workload] = {}

        def remember(label, d):
            if fixed[workload].setdefault(label, d) != d:
                raise SystemExit("%s: a fixed op gave different outputs" % label)

        for seed in PINNED_SEEDS:
            workdir = os.path.join(run.WORK, "record")
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            inp = inputs.build(workload, seed, workdir)
            if inp.problems:
                raise SystemExit("size checks failed: %s" % inp.problems)
            home = os.getcwd()
            os.chdir(workdir)
            try:
                digests = []
                for op in inp.ops:
                    code, out = run.call_cli(op.argv)
                    if code != 0:
                        raise SystemExit("%s: exit %s" % (op.label, code))
                    if op.golden:
                        if op.golden not in goldens:
                            with open(os.path.join(run.ROOT, op.golden), "rb") as fh:
                                goldens[op.golden] = fh.read()
                        if out != goldens[op.golden]:
                            raise SystemExit("%s: differs from %s" % (op.label, op.golden))
                    if op.fixed:
                        remember(op.label, run.digest(out))
                    else:
                        digests.append(run.digest(out))
            finally:
                os.chdir(home)
            seeded[workload][str(seed)] = {
                "labels": run.labels_digest([op for op in inp.ops if not op.fixed]),
                "digests": digests,
            }
            print(workload, seed, len(inp.ops), "ops", flush=True)

        def record_climb(label, rung, category, code, out):
            remember(label, run.digest(out))
            return None if code == 0 else "exit %s" % code

        frontier, log, _, failures = climb.climb(
            workload, workdir, run.SRC, RECORD_LIMIT_S, record_climb
        )
        if failures:
            raise SystemExit("climb failed: %s" % failures)
        for rung, morphisms, seconds, stop in log:
            print(workload, "climb", rung, morphisms, "%.2f s" % seconds, stop or "recorded", flush=True)

    with open(run.EXPECTED, "w", encoding="ascii") as fh:
        json.dump(
            {"pinned_seeds": list(PINNED_SEEDS), "fixed": fixed, "seeded": seeded},
            fh,
            sort_keys=True,
            separators=(",", ":"),
        )
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
