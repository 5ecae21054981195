"""Order statistics and span arithmetic for the served-path benchmark.

Everything here is pure so ``test_servedbench.py`` can pin it down:
percentiles use the nearest-rank rule (a reported p90 is a latency
some request really had), and span self time is a span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import math
import statistics
from statistics import median
from typing import Iterable, Sequence

__all__ = [
    "percentile",
    "median",
    "quartile_spread",
    "self_times",
    "covered",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float,
                                                       float]:
    """``(median, q1, q3, (q3 - q1) / median)`` with the quartiles of
    :func:`statistics.quantiles` (``n=4``, exclusive method)."""
    mid = median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(mid) if mid else math.inf
    return mid, q1, q3, spread


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Sequence]) -> dict[int, float]:
    """Self time of every span: its duration minus the part of it
    covered by its child spans (clipped to the parent's interval).

    ``spans`` are ``[name, start, end, parent, request_id]`` rows; a
    span's id is its index and ``parent`` is an index or ``None``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    result = {}
    for idx, (_name, start, end, _parent, _rid) in enumerate(spans):
        inner = [(max(s, start), min(e, end))
                 for s, e in children.get(idx, ()) if min(e, end) > max(s, start)]
        result[idx] = (end - start) - covered(inner)
    return result
