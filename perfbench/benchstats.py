"""Pure helpers of the served-AQP benchmark: percentiles, span self time,
open-loop accounting.

Nothing here imports ``repro`` or touches a socket, so the self-tests in
``test_benchstats.py`` run in milliseconds.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it (nearest-rank rule).
MIN_BEYOND = 10


def min_samples(p: float) -> int:
    """Smallest sample count whose nearest-rank ``p``-th percentile has
    :data:`MIN_BEYOND` samples beyond it."""
    n = 1
    while n - math.ceil(p / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p < 100).

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond the rank: such a percentile is one or two outliers, not a
    statistic.
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(values)
    rank = math.ceil(p / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {n - rank} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(p)} samples)"
        )
    return sorted(values)[rank - 1]


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[tuple[str, int, int]]) -> dict[str, int]:
    """Self time per span name for properly nested spans of one thread.

    ``spans`` are ``(name, start, end)``.  A span's self time is its
    duration minus the durations of its direct children, the spans that
    start inside it and are not inside a deeper one.  Returns the sum of
    self times per name; their total equals the total duration of the
    outermost spans.
    """
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    own = [end - start for _, start, end in ordered]
    stack: list[int] = []
    for i, (_, start, end) in enumerate(ordered):
        while stack and ordered[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            parent = ordered[stack[-1]]
            if end > parent[2]:
                raise ValueError(
                    f"span {ordered[i][0]} overlaps {parent[0]} without nesting"
                )
            own[stack[-1]] -= end - start
        stack.append(i)
    totals: dict[str, int] = {}
    for (name, _, _), value in zip(ordered, own):
        totals[name] = totals.get(name, 0) + value
    return totals


def outer_duration(spans: Sequence[tuple[str, int, int]]) -> int:
    """Total duration of the outermost spans (those inside no other)."""
    total = 0
    reach = None
    for _, start, end in sorted(spans, key=lambda s: (s[1], -s[2])):
        if reach is None or start >= reach:
            total += end - start
            reach = end
    return total


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------
def due_times(start: float, interval: float, count: int) -> list[float]:
    """When each of ``count`` open-loop operations is due."""
    return [start + i * interval for i in range(count)]


def open_loop_latency(due: float, done: float) -> float:
    """Latency of an open-loop operation: from when it was due, not from
    when it was sent, so a stall also charges the operations queued
    behind it."""
    return done - due
