"""Process-wide metrics: counters, gauges and log-spaced histograms.

One :class:`MetricsRegistry` (:data:`METRICS`) accumulates counts for the
whole process; every instrumented layer binds its instruments once at
import time and increments them on the hot path without any registry
lookup.  :meth:`MetricsRegistry.snapshot` renders the registry as one
JSON-ready document with a stable, versioned schema -- the payload behind
``GET /v1/metrics`` and the counter track of an exported Chrome trace.

The histogram generalizes the fixed log-spaced latency histogram the
evaluation service introduced in PR 6 (``repro/serve/stats.py`` is now a
thin wrapper over this module), so every latency distribution in the
process shares one bucket layout and one serialized shape.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

#: Version of the :meth:`MetricsRegistry.snapshot` document schema.
METRICS_SCHEMA_VERSION = 1

#: Default upper bucket bounds (seconds) of latency histograms: fixed and
#: log-spaced so dashboards can diff histograms across processes and runs;
#: the terminal bucket is unbounded.  Identical to the PR 6 serve bounds.
DEFAULT_LATENCY_BOUNDS_S: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, math.inf,
)


def bucket_label(bound: float) -> str:
    """The JSON key of one histogram bucket bound (``inf`` for the last)."""
    return "inf" if math.isinf(bound) else f"{bound:g}"


class Counter:
    """A monotonically increasing, thread-safe integer counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter.

        Raises :class:`ValueError` for a negative ``amount``: a counter
        never decreases.
        """
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value


class Gauge:
    """A thread-safe instantaneous value (last write wins)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """The most recently recorded value."""
        return self._value


class Histogram:
    """A fixed-bucket, thread-safe histogram (cumulative-free, JSON-ready).

    Parameters
    ----------
    bounds:
        Upper bucket bounds in ascending order; observations above the last
        finite bound land in the terminal bucket.  Defaults to the shared
        log-spaced latency layout (:data:`DEFAULT_LATENCY_BOUNDS_S`).
    """

    __slots__ = ("_bounds", "_counts", "_count", "_sum", "_lock")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_S):
        self._bounds = tuple(bounds)
        self._counts: List[int] = [0] * len(self._bounds)
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            for index, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[index] += 1
                    break
            self._count += 1
            self._sum += value

    @property
    def bounds(self) -> Tuple[float, ...]:
        """The upper bucket bounds."""
        return self._bounds

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all recorded observations."""
        return self._sum

    def as_dict(self, sum_key: str = "sum") -> Dict[str, object]:
        """The histogram as a JSON-ready mapping (stable key order).

        Parameters
        ----------
        sum_key:
            Key the observation sum is published under; the serve layer
            keeps its historical ``sum_s`` spelling through this knob.
        """
        with self._lock:
            counts = list(self._counts)
            count, total = self._count, self._sum
        buckets = {
            bucket_label(bound): value for bound, value in zip(self._bounds, counts)
        }
        return {"count": count, sum_key: total, "buckets": buckets}


class MetricsRegistry:
    """A named registry of counters, gauges and histograms.

    Instruments are created on first request and shared thereafter
    (get-or-create semantics), so independent layers binding the same name
    accumulate into the same instrument.  Hot paths should bind once at
    import time and hold the instrument, not look it up per event.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created when absent)."""
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created when absent)."""
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None
    ) -> Histogram:
        """The histogram registered under ``name`` (created when absent).

        ``bounds`` only applies on creation; later callers receive the
        existing instrument regardless of the bounds they pass.
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(bounds or DEFAULT_LATENCY_BOUNDS_S)
                self._histograms[name] = histogram
            return histogram

    def snapshot(self) -> Dict[str, object]:
        """The registry as one JSON-ready document (stable, versioned schema).

        The document always carries exactly four keys --
        ``schema_version``, ``counters``, ``gauges``, ``histograms`` --
        with instrument names sorted for deterministic serialization.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {name: counters[name].value for name in sorted(counters)},
            "gauges": {name: gauges[name].value for name in sorted(gauges)},
            "histograms": {
                name: histograms[name].as_dict() for name in sorted(histograms)
            },
        }

    def reset(self) -> None:
        """Zero every registered instrument in place (test isolation hook).

        Instruments stay registered (hot paths bind them once at import
        time and keep the reference); only their accumulated state drops.
        """
        with self._lock:
            for counter in self._counters.values():
                with counter._lock:
                    counter._value = 0
            for gauge in self._gauges.values():
                with gauge._lock:
                    gauge._value = 0.0
            for histogram in self._histograms.values():
                with histogram._lock:
                    histogram._counts = [0] * len(histogram._bounds)
                    histogram._count = 0
                    histogram._sum = 0.0


#: The process-wide registry every instrumented layer accumulates into.
METRICS = MetricsRegistry()
