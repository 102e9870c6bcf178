"""Unified observability: span tracing and process-wide metrics.

The two halves answer the two questions a multi-layer evaluation stack
raises:

* **Where did the time go?** -- :mod:`repro.obs.trace`, a thread-safe span
  tracer with a context-manager API, monotonic clocks and a zero-allocation
  no-op path when disabled, exported as one Chrome-trace/Perfetto JSON
  file.
* **How often did each path run?** -- :mod:`repro.obs.metrics`, a
  process-wide registry of counters, gauges and log-spaced histograms with
  a stable snapshot schema, generalized out of the serve-local statistics
  of PR 6.

Every evaluation layer is instrumented through this package: the dispatch
path (dedupe, chunk, merge-back, reassembly), the memo caches, the columnar
engine dispatch, disk cache I/O, FlexWatts calibration, the interval
simulator and the serving daemon.  The surfaces are ``--trace FILE`` on the batch CLI commands,
``GET /v1/metrics`` on the daemon, and :class:`RunStats` attached to result
containers.  See ``docs/guides/observability.md`` for the span taxonomy.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.obs.metrics import (
        Counter,
        DEFAULT_LATENCY_BOUNDS_S,
        Gauge,
        Histogram,
        METRICS,
        METRICS_SCHEMA_VERSION,
        MetricsRegistry,
    )
    from repro.obs.runstats import RunStats
    from repro.obs.trace import (
        SpanRecord,
        Tracer,
        active_tracer,
        attach_pmu_tracing,
        install_tracer,
        instant,
        span,
        tracing_enabled,
        uninstall_tracer,
        write_chrome_trace,
    )

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS_S",
    "Gauge",
    "Histogram",
    "METRICS",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "RunStats",
    "SpanRecord",
    "Tracer",
    "active_tracer",
    "attach_pmu_tracing",
    "install_tracer",
    "instant",
    "span",
    "tracing_enabled",
    "uninstall_tracer",
    "write_chrome_trace",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.obs.metrics": (
        "Counter", "DEFAULT_LATENCY_BOUNDS_S", "Gauge", "Histogram", "METRICS",
        "METRICS_SCHEMA_VERSION", "MetricsRegistry",
    ),
    "repro.obs.runstats": ("RunStats",),
    "repro.obs.trace": (
        "SpanRecord", "Tracer", "active_tracer", "attach_pmu_tracing", "install_tracer",
        "instant", "span", "tracing_enabled", "uninstall_tracer", "write_chrome_trace",
    ),
})
