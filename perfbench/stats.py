"""Summaries of repeated timings."""
from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples above it.

    Returns (percentile, value by nearest rank), or None when even p90
    would rest on fewer than ten samples.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(values)
            return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return None


def summary(values: list[float]) -> dict:
    """Median, tail percentile and sample count of one timing series."""
    out = {"n": len(values), "median": statistics.median(values)}
    t = tail(values)
    if t is not None:
        out[f"p{t[0]:g}"] = t[1]
    return out
