"""Statistics rules shared by the benchmark: percentiles, tails and self time.

No dependency on the program under test, so the rules can be tested on
their own.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

import numpy as np

# Candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Middle value; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def beyond(n: int, p: float) -> int:
    """How many of n samples lie strictly above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float:
    """Highest percentile in TAILS with at least MIN_BEYOND samples beyond it.

    Returns 50.0 when even the lowest candidate is unsupported: the median is
    then the only figure the sample can stand behind.
    """
    for p in TAILS:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return 50.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median plus the highest tail the sample supports, with the sample count."""
    n = len(values)
    p = tail_percentile(n)
    return {"n": n, "median": median(values), "tail_p": p, "tail": percentile(values, p)}


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus the time its children cover.

    parent[k] indexes the span that caused span k, or is -1 for a root.
    Children of one parent run one after another on one thread, so their
    durations add up to the time they cover.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = dur.copy()
    child = parent >= 0
    np.subtract.at(out, parent[child], dur[child])
    return out
