"""Percentiles, run-to-run spread and the span self-time reducer."""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

#: Slack, in the spans' microseconds, within which a span still nests in
#: its parent: it absorbs the rounding of the tracer's clock.
NEST_EPS_US = 1.0


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    if fraction == 0.0 or ordered[high] == ordered[low]:  # keeps inf (a failed op) exact
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def spread(values: Sequence[float]) -> float:
    """Interquartile range over median: the run-to-run spread of a metric."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


@dataclass(frozen=True)
class Span:
    """One complete span: ``[start, end]`` on one thread of one process."""

    name: str
    start: float
    end: float
    lane: Hashable = 0


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per span name: duration minus the part its children cover.

    A span's children are the spans on its lane that it is the innermost
    container of (within :data:`NEST_EPS_US`).  Spans that
    overlap without nesting -- coroutines interleaving on one event-loop
    thread -- count toward the innermost span that fully contains them, and
    overlapping children are counted once.
    """
    totals: Dict[str, float] = defaultdict(float)
    lanes: Dict[Hashable, List[Span]] = defaultdict(list)
    for span in spans:
        lanes[span.lane].append(span)
    for lane in lanes.values():
        lane.sort(key=lambda span: (span.start, -span.end))
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        stack: List[int] = []
        for index, span in enumerate(lane):
            while stack and lane[stack[-1]].end <= span.start + NEST_EPS_US:
                stack.pop()
            for parent in reversed(stack):
                if lane[parent].end + NEST_EPS_US >= span.end:
                    children[parent].append((span.start, span.end))
                    break
            stack.append(index)
        for index, span in enumerate(lane):
            covered = union_length(children[index], span.start, span.end)
            totals[span.name] += (span.end - span.start) - covered
    return dict(totals)


def unspanned(spans: Sequence[Span], outer: str, wrapper: str) -> float:
    """Time of the ``outer`` spans that no span under them covers.

    ``wrapper`` names a span that merely wraps the named layers below it
    (a run span around the executor's), so it does not count as cover:
    the result is ``outer``'s self time plus ``wrapper``'s self time
    inside it.
    """
    total = 0.0
    for span in spans:
        if span.name != outer:
            continue
        inner = [
            (s.start, s.end) for s in spans
            if s.lane == span.lane and s.name not in (outer, wrapper)
            and s.start >= span.start - NEST_EPS_US and s.end <= span.end + NEST_EPS_US
        ]
        total += (span.end - span.start) - union_length(inner, span.start, span.end)
    return total


def coverage(outer: Span, spans: Iterable[Span]) -> float:
    """Share of ``outer``'s duration that ``spans`` cover (0..1)."""
    duration = outer.end - outer.start
    if duration <= 0:
        return 0.0
    covered = union_length(((s.start, s.end) for s in spans), outer.start, outer.end)
    return covered / duration


def histogram_quantile(buckets: Dict[str, int], q: float) -> float:
    """The ``q`` quantile (0..1) of a bucketed histogram, in its own unit.

    ``buckets`` maps upper bounds (as labels, ``"inf"`` last) to counts, as
    the program's metrics snapshot serialises them; values are interpolated
    linearly inside the bucket holding the quantile.  Returns 0 when empty.
    """
    bounds = [(float(label), count) for label, count in buckets.items()]
    total = sum(count for _, count in bounds)
    if total == 0:
        return 0.0
    target = q * total
    lower = 0.0
    seen = 0
    for upper, count in bounds:
        if count and seen + count >= target:
            if upper == float("inf"):
                return lower
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        lower = upper
    return lower
