"""Summary statistics shared by the runner and the spread check."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list: the value at rank
    ceil(pct/100 * n), counting from 1."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(values, reference_count=None):
    """(percentile, value, samples beyond it) for the highest listed
    percentile with at least TAIL_MIN_BEYOND samples beyond it.

    The percentile is chosen for `reference_count` samples when given, else
    for len(values); the value is always taken over all the values.  With too
    few samples for any tail percentile the median is returned.
    """
    ordered = sorted(values)
    n = reference_count or len(ordered)
    pct = TAIL_PERCENTILES[0]
    for candidate in TAIL_PERCENTILES[1:]:
        if n - math.ceil(candidate / 100.0 * n) < TAIL_MIN_BEYOND:
            break
        pct = candidate
    return (pct,) + nearest_rank(ordered, pct)


def spread(values):
    """Distance between the first and third quartiles, as a share of the
    median, with the quartiles `statistics.quantiles(values, n=4)` gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
