"""Statistics shared by run.py and compare.py.

Percentiles are nearest-rank: the p-th percentile of n sorted samples is the
sample at rank ceil(p/100 * n). A tail percentile is only reported when at
least MIN_BEYOND samples lie beyond its rank; with fewer samples the highest
percentile that has them is reported instead, and the caller prints which.
"""

import math
import statistics

MIN_BEYOND = 10


def nearest_rank(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n, want=99.0, beyond=MIN_BEYOND):
    """The highest whole percentile <= want whose nearest rank leaves at
    least `beyond` of n samples above it (0 when n is too small for any)."""
    p = int(want)
    while p > 0 and n - math.ceil(p / 100.0 * n) < beyond:
        p -= 1
    return float(p)


def tail(values, want=99.0):
    """(percentile actually used, its value, sample count) for a tail."""
    p = tail_percentile(len(values), want)
    value = nearest_rank(values, p) if p > 0 else max(values)
    return p, value, len(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def ratio(num, den):
    """A ratio with its base: {"value", "num", "den"} (value 0 on den 0)."""
    return {"value": num / den if den else 0.0, "num": num, "den": den}
