#!/usr/bin/env python3
"""finsite benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a finsite checkout.  Set-up imports finsite from the
checkout's `src/`, builds the workload's inputs from the seed and writes them
as site files under `.bench_build/perfbench/`.  The run then repeats the
workload's op list (one CLI subcommand per op, called through
`finsite.cli.main` with stdout captured) in whole passes until S seconds have
passed, and checks every output.  Each op loads its site from its file, so no
memo is shared between ops, as for a CLI user.

--trace 0 prints the end-to-end metrics and ends with the frontier climb.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, plus the tracing overhead; its spans go to
`.bench_build/perfbench/trace-<workload>-s<seed>.jsonl`.

Every end-to-end time is scaled for the host's speed at the moment it was
taken (see speed.py); the raw figures are printed above the result.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import speed
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPEATS = 3
# reference samples taken around each step of set-up
SETUP_REFS = 15
CLIMB_LIMIT_S = 5.0
# The tail percentile is the one ten passes of the op list would support, so
# it stays the same when the program gets faster or slower.
TAIL_REFERENCE_PASSES = 10
SUBCOMMANDS = ("validate", "topologies", "dense", "sheafify", "classify", "report")
MAX_LISTED_FAILURES = 20


def import_finsite():
    """Import finsite from this checkout's src/; returns the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "finsite", "__init__.py")):
        raise SystemExit("perfbench: no finsite sources at %s" % SRC)
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import finsite.cli  # noqa: F401
    import finsite.corpus  # noqa: F401

    elapsed = time.perf_counter() - start
    if not os.path.abspath(finsite.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported finsite from %s" % finsite.__file__)
    return elapsed


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def labels_digest(ops):
    return digest("\n".join(op.label for op in ops).encode())


def call_cli(argv):
    """(exit code, stdout bytes) of one in-process CLI call."""
    from finsite import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["--format", "json", *argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 3
        except Exception as exc:  # an op that crashes is a failed op, not a crashed run
            code = "raised %s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue().encode("ascii", "backslashreplace")


def setup(workload, seed, workdir, import_s, refs):
    """Build and write the inputs SETUP_REPEATS times; returns the inputs,
    setup_s (the import time plus the median build-and-write time, scaled by
    the reference times `refs` and those taken between builds) and the
    unscaled setup_s."""
    import inputs

    times = []
    refs = list(refs)
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        start = time.perf_counter()
        inp = inputs.build(workload, seed, workdir)
        times.append(time.perf_counter() - start)
        refs += speed.sample(SETUP_REFS)
    raw = import_s + statistics.median(times)
    return inp, raw * speed.factor(refs), raw


class Checker:
    """Checks each output: exit code 0, golden bytes where a golden exists,
    the digest recorded at the baseline commit where one exists for the op
    (fixed ops always, seeded ops for the pinned seeds), and the same bytes
    on every pass."""

    def __init__(self, workload, seed, ops):
        with open(EXPECTED, encoding="ascii") as fh:
            expected = json.load(fh)
        self.fixed = expected["fixed"].get(workload, {})
        self.seeded = {}
        seeded_ops = [op for op in ops if not op.fixed]
        pinned = expected["seeded"].get(workload, {}).get(str(seed))
        self.pinned = pinned is not None
        if pinned is not None:
            if pinned["labels"] != labels_digest(seeded_ops):
                raise SystemExit(
                    "perfbench: the recorded digests for seed %d do not match "
                    "this op list" % seed
                )
            self.seeded = dict(zip((op.label for op in seeded_ops), pinned["digests"]))
        self.goldens = {}
        self.first = {}
        self.failures = []
        self.attempted = 0
        self.recorded_checks = 0

    def golden(self, path):
        if path not in self.goldens:
            with open(os.path.join(ROOT, path), "rb") as fh:
                self.goldens[path] = fh.read()
        return self.goldens[path]

    def fail(self, label, problem):
        self.failures.append("%s: %s" % (label, problem))

    def check(self, op, code, out):
        self.attempted += 1
        problem = self.problem(op, code, out)
        if problem:
            self.fail(op.label, problem)

    def problem(self, op, code, out):
        if code != 0:
            return "exit %s, expected 0" % (code,)
        d = digest(out)
        if op.golden and out != self.golden(op.golden):
            return "output differs from %s" % op.golden
        recorded = self.fixed.get(op.label) if op.fixed else self.seeded.get(op.label)
        if op.fixed and recorded is None:
            return "no digest recorded for this fixed op"
        if recorded is not None:
            self.recorded_checks += 1
            if d != recorded:
                return "output digest %s, recorded %s" % (d, recorded)
        first = self.first.setdefault(op.label, d)
        if d != first:
            return "output changed between passes"
        return None

    def check_file(self, label, path, golden):
        self.attempted += 1
        with open(path, "rb") as fh:
            if fh.read() != self.golden(golden):
                self.fail(label, "written file differs from %s" % golden)

    def check_climb(self, label, rung, category, code, out):
        """Climb outputs: the recorded digest where the baseline reached the
        rung; past it, well-formed output about the right site."""
        if code != 0:
            return "exit %s, expected 0" % (code,)
        recorded = self.fixed.get(label)
        if recorded is not None:
            self.recorded_checks += 1
            return None if digest(out) == recorded else "output differs from the record"
        try:
            data = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if not isinstance(data, dict) or data.get("site") != rung:
            return "output is not about site %s" % rung
        sizes = data.get("category")
        if isinstance(sizes, dict) and sizes != {
            "objects": len(category.objects),
            "morphisms": len(category.morphisms),
        }:
            return "output has the wrong category sizes"
        return None


def run_pass(ops, checker, latencies, recorder=None, refs=None):
    """Run the op list once.  With `refs`, time one reference task after
    each op and append its time there."""
    for op in ops:
        start = time.perf_counter()
        if recorder is None:
            code, out = call_cli(op.argv)
        else:
            code, out = recorder.run_op(op.kind, lambda: call_cli(op.argv))
        ms = (time.perf_counter() - start) * 1000.0
        latencies.append((op.kind, ms))
        if refs is not None:
            refs.append(speed.reference_ms())
        checker.check(op, code, out)


def end_to_end(ops, checker, seconds):
    """Untraced passes until `seconds` have passed; returns metrics and notes.
    Op times are scaled for the host's speed around each op."""
    raw = []
    refs = []
    rss_mb = None
    start = time.perf_counter()
    while True:
        run_pass(ops, checker, raw, refs=refs)
        if rss_mb is None:
            # after one pass: a fixed amount of work, whatever the run length
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    passes = len(raw) // len(ops)
    latencies = [(kind, ms * f) for (kind, ms), f in zip(raw, speed.factors(refs))]
    all_ms = [ms for _, ms in latencies]
    # the op time of each pass; the median pass, which a burst of load on
    # the host moves less
    pass_s = [
        sum(all_ms[i * len(ops) : (i + 1) * len(ops)]) / 1000.0 for i in range(passes)
    ]
    pct, tail_ms, beyond = stats.tail(all_ms, TAIL_REFERENCE_PASSES * len(ops))
    metrics = {
        "ops_per_s": (len(ops) / statistics.median(pass_s), "1/s"),
        "op_ms.p50": (statistics.median(all_ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
    }
    for kind in SUBCOMMANDS:
        samples = [ms for k, ms in latencies if k == kind]
        metrics[kind + "_ms.p50"] = (statistics.median(samples), "ms")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    raw_ms = [ms for _, ms in raw]
    notes = [
        "passes %d, ops %d, wall %.3f s, %.1f ops/s over the whole run"
        % (passes, len(raw), wall, len(raw) / wall),
        "op_ms.tail is p%g of %d samples, %d beyond it" % (pct, len(all_ms), beyond),
        "reference task median %.4f ms (scaled to %.4f ms); unscaled op_ms.p50 "
        "%.4f ms, op_ms.tail %.4f ms"
        % (
            statistics.median(refs),
            speed.REF_MS,
            statistics.median(raw_ms),
            stats.tail(raw_ms, TAIL_REFERENCE_PASSES * len(ops))[1],
        ),
        "scaled pass seconds: " + " ".join("%.3f" % t for t in pass_s),
    ]
    return metrics, notes


def traced(ops, checker, seconds, workload, seed):
    """Alternate untraced and traced passes; returns per-layer metrics and notes."""
    import spans

    rec = spans.Recorder()
    rec.install()
    rates = {False: [0, 0.0], True: [0, 0.0]}
    start = time.perf_counter()
    try:
        while True:
            for on in (False, True):
                rec.enabled = on
                t = time.perf_counter()
                run_pass(ops, checker, [], rec if on else None)
                rates[on][0] += 1
                rates[on][1] += time.perf_counter() - t
            if time.perf_counter() - start >= seconds:
                break
    finally:
        rec.enabled = False
        rec.uninstall()
    passes = rates[True][0]
    metrics = {k: (v, spans.unit(k)) for k, v in spans.layer_metrics(rec, passes).items()}
    overhead = 1.0 - rates[False][1] / rates[True][1]
    metrics["trace.overhead"] = (overhead, "frac")
    notes = ["traced passes %d, spans %d, tracing overhead %.1f%% of ops_per_s"
             % (passes, len(rec.spans), 100.0 * overhead)]
    notes.append("self time per traced pass, by span:")
    for name, self_s, n in spans.self_time_table(rec)[:16]:
        notes.append("  %-36s %9.4f s %9.1f calls" % (name, self_s / passes, n / passes))
    path = os.path.join(WORK, "trace-%s-s%d.jsonl" % (workload, seed))
    with open(path, "w", encoding="ascii") as fh:
        for s in rec.spans:
            fh.write(json.dumps([s.id, s.parent, s.name, s.op, s.thread, s.start, s.end, s.cpu]))
            fh.write("\n")
    notes.append("spans written to %s" % os.path.relpath(path, ROOT))
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refs = speed.sample(SETUP_REFS)
    import_s = import_finsite()
    refs += speed.sample(SETUP_REFS)
    import climb
    import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error("unknown workload %r (have %s)" % (args.workload, ", ".join(inputs.WORKLOADS)))
    workdir = os.path.join(WORK, "%s-s%d" % (args.workload, args.seed))
    inp, setup_s, raw_setup_s = setup(args.workload, args.seed, workdir, import_s, refs)
    checker = Checker(args.workload, args.seed, inp.ops)
    for problem in inp.problems:
        checker.fail("setup", problem)
    if args.workload == "corpus-pipeline":
        checker.check_file(
            "setup:arrow-j2.json", os.path.join(workdir, "arrow-j2.json"), inputs.GOLDEN_SITE
        )

    home = os.getcwd()
    os.chdir(workdir)
    try:
        if args.trace:
            metrics, notes = traced(inp.ops, checker, args.seconds, args.workload, args.seed)
        else:
            metrics, notes = end_to_end(inp.ops, checker, args.seconds)
    finally:
        os.chdir(home)

    if not args.trace:
        frontier, log, attempted, failures = climb.climb(
            args.workload, workdir, SRC, CLIMB_LIMIT_S, checker.check_climb
        )
        checker.attempted += attempted
        checker.failures += failures
        metrics["frontier_morphisms"] = (frontier, "count")
        for rung, morphisms, seconds, stop in log:
            notes.append("climb %-8s %3d morphisms %7.3f s %s" % (rung, morphisms, seconds, stop or "ok"))
        metrics["setup_s"] = (setup_s, "s")
        notes.append("unscaled setup_s %.4f s" % raw_setup_s)
        failed_frac = len(checker.failures) / checker.attempted
        metrics["ok_frac"] = (1.0 - failed_frac, "frac")
        notes.append("failed_frac %.6f (%d of %d checks)" % (failed_frac, len(checker.failures), checker.attempted))

    notes.append(
        "outputs checked against recorded digests: %d (seed %d %s)"
        % (checker.recorded_checks, args.seed, "pinned" if checker.pinned else "not pinned: seeded ops checked for determinism only")
    )
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    for failure in checker.failures[:MAX_LISTED_FAILURES]:
        print("FAILED " + failure)

    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {},
    }
    for name, (value, unit) in metrics.items():
        result["metrics"][name] = {"value": value, "unit": unit}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
