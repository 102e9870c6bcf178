"""Observability of the evaluation service: latency histograms and counters.

Everything ``GET /v1/stats`` reports is assembled here from three sources:

* per-endpoint request counters and fixed-bucket latency histograms
  (:class:`EndpointStats`, maintained by the server's request loop);
* the coalescers' traffic counters
  (:class:`~repro.serve.coalescer.CoalescerStats`);
* the engines' cache statistics -- memory-tier hit/miss/size from
  ``cache_info()`` and the on-disk footprint through
  :func:`repro.cache.cache_stats_payload`, the **same** schema helper
  behind ``repro cache stats --json``, so the two surfaces cannot drift.

Since the :mod:`repro.obs` layer landed, the instruments here are thin
wrappers over :mod:`repro.obs.metrics`: :class:`LatencyHistogram` is the
shared log-spaced :class:`~repro.obs.metrics.Histogram` serialized under
its historical ``sum_s`` key, and :class:`EndpointStats` additionally
mirrors its request/error tallies into the process-wide registry (the
``serve.requests`` / ``serve.errors`` counters of ``GET /v1/metrics``).
The ``/v1/stats`` document shape is unchanged byte for byte.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import DEFAULT_LATENCY_BOUNDS_S, METRICS, Histogram


class LatencyHistogram(Histogram):
    """A fixed-bucket latency histogram (cumulative-free, JSON-ready).

    A thin wrapper over the shared :class:`repro.obs.metrics.Histogram`:
    same bounds, same bucket labels, but serialized under the service's
    historical ``sum_s`` key so the ``/v1/stats`` document is byte-stable.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(bounds=DEFAULT_LATENCY_BOUNDS_S)

    def as_dict(self) -> Dict[str, object]:
        """The histogram as a JSON-ready mapping (stable key order)."""
        return super().as_dict(sum_key="sum_s")


class EndpointStats:
    """Request counters of one endpoint (count, errors, latency).

    The per-endpoint tallies stay local to the instance (the ``/v1/stats``
    ``endpoints`` section is keyed by endpoint name), while the aggregate
    ``serve.requests`` / ``serve.errors`` counters in the process-wide
    registry tick alongside so ``GET /v1/metrics`` sees service traffic.
    """

    _TOTAL_REQUESTS = METRICS.counter("serve.requests")
    _TOTAL_ERRORS = METRICS.counter("serve.errors")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.latency = LatencyHistogram()

    def observe(self, elapsed_s: float, error: bool) -> None:
        """Record one handled request and its outcome."""
        self.requests += 1
        self._TOTAL_REQUESTS.inc()
        if error:
            self.errors += 1
            self._TOTAL_ERRORS.inc()
        self.latency.observe(elapsed_s)

    def as_dict(self) -> Dict[str, object]:
        """The counters as a JSON-ready mapping (stable key order)."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "latency": self.latency.as_dict(),
        }


def memory_cache_section(engines: Dict[str, object]) -> Dict[str, object]:
    """The memory-tier cache section of the stats payload.

    One ``{"hits", "misses", "hit_rate", "size"}`` entry per named engine,
    read through the engines' ``cache_info()`` surface.
    """
    section: Dict[str, object] = {}
    for name, engine in engines.items():
        info = engine.cache_info()
        section[name] = {
            "hits": info.hits,
            "misses": info.misses,
            "hit_rate": info.hit_rate,
            "size": info.size,
        }
    return section

