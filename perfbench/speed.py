"""Host-speed correction for the benchmark's timings.

On a shared host the speed of one core drifts with the load of its
neighbours: on a 2-vCPU cloud VM a fixed pure-Python loop took anywhere from
15 to 23 ms, from one second to the next and from one process to the next.
That drift moves every op by the same share and swamps a change in the
program.  So the runner times a fixed reference task, which uses only the
standard library, right after each piece of the program's work, and scales
each time t the program took to

    t * REF_MS / r

where r is the median reference time measured around it.  The result reads
as the time the work would take on a host where the reference task takes
REF_MS.  The reference does not run finsite code, so a faster or slower
program moves the scaled time by the same share as the raw time.
"""

from __future__ import annotations

import json
import statistics
import time

# The reference task's median time on a quiet 2-vCPU Xeon VM with Python
# 3.11.7; a fixed constant, so scaled times compare across runs.
REF_MS = 0.25
# Each op is scaled by the median of the reference times taken after the
# WINDOW ops before it, after it, and after the WINDOW ops after it.  One
# sample per op: back-to-back samples run faster than one taken right after
# the program's work, so more samples after long ops would skew their scale.
WINDOW = 10


def reference_task():
    """Interpreter work of the kind finsite does: tuple-keyed dicts, sets,
    sorting and JSON encoding, with no finsite code."""
    counts = {}
    for i in range(300):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + i
    seen = set()
    for key, value in counts.items():
        seen.add(key[0] * 31 + value % 13)
    ordered = sorted(seen, key=lambda x: -x)
    json.dumps({"a": ordered, "b": [list(key) for key in counts]}, sort_keys=True)
    return len(ordered)


def reference_ms():
    """Milliseconds one reference task takes now."""
    start = time.perf_counter()
    reference_task()
    return (time.perf_counter() - start) * 1000.0


def sample(n):
    """n reference times, in milliseconds."""
    return [reference_ms() for _ in range(n)]


def factor(refs):
    """The scale factor for work timed among the reference times `refs`."""
    return REF_MS / statistics.median(refs)


def factors(refs, window=WINDOW):
    """Per-op scale factors: factors(refs)[i] scales the op timed just
    before refs[i], by the median of refs[i - window .. i + window]."""
    return [
        factor(refs[max(0, i - window) : i + window + 1]) for i in range(len(refs))
    ]
