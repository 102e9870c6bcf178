"""Thread-safe span tracing with Chrome-trace/Perfetto JSON export.

One :class:`Tracer` collects :class:`SpanRecord` events -- durationful
spans and instants -- from every thread of a process; the export appends
the metrics registry's counters and gauges as final counter samples.
Durations come from the monotonic :func:`time.perf_counter` clock;
timestamps are wall-aligned at tracer construction.

The module-level API is the instrumentation surface the rest of the
library uses::

    with obs_trace.span("executor.chunk", units=len(chunk)) as active:
        ...
        active.set("columnar", used_columnar)

When no tracer is installed (:func:`install_tracer` has not run), the
module helpers return one shared no-op span object and allocate nothing,
so instrumented hot paths cost a dict build and a function call -- the
``obs-overhead`` benchmark gate holds this below 5% on the fig7-scale
cold batch.

Nesting is tracked per thread: each span records its enclosing span's
name in ``args["parent"]``.  Coroutines interleaving on one event-loop
thread share that stack, so parent attribution inside ``repro.serve`` is
best-effort; timestamps and durations are always exact.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.metrics import MetricsRegistry
    from repro.soc.pmu import PowerManagementUnit

#: Version of the exported trace document's ``otherData`` schema.
TRACE_SCHEMA_VERSION = 1


@dataclass
class SpanRecord:
    """One recorded trace event.

    ``phase`` follows the Chrome trace-event phases: ``"X"`` for complete
    spans, ``"i"`` for instants, ``"C"`` for counter samples.
    """

    name: str
    category: str
    phase: str
    ts_us: float
    dur_us: float
    pid: int
    tid: int
    args: Dict[str, object] = field(default_factory=dict)

    def to_chrome_event(self) -> Dict[str, object]:
        """The record as one Chrome trace-event object."""
        event: Dict[str, object] = {
            "name": self.name,
            "cat": self.category,
            "ph": self.phase,
            "ts": self.ts_us,
            "pid": self.pid,
            "tid": self.tid,
            "args": self.args,
        }
        if self.phase == "X":
            event["dur"] = self.dur_us
        if self.phase == "i":
            event["s"] = "t"  # thread-scoped instant
        return event


class _NullSpan:
    """The shared no-op span: every tracing call site when tracing is off."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        """Discard an attribute (tracing is disabled)."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: The one pre-allocated no-op span (zero allocation on the disabled path).
_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """A live span: records its duration and attributes on ``__exit__``."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        self._start = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach one attribute to the span."""
        self._args[key] = value

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._thread_stack()
        if stack:
            self._args.setdefault("parent", stack[-1])
        stack.append(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._thread_stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        tracer._record(
            SpanRecord(
                name=self._name,
                category=self._category,
                phase="X",
                ts_us=tracer._to_wall_us(self._start),
                dur_us=(end - self._start) * 1e6,
                pid=os.getpid(),
                tid=threading.get_ident(),
                args=self._args,
            )
        )
        return False


class Tracer:
    """A thread-safe collector of trace events for one process.

    All recording methods may be called from any thread; records carry the
    recording thread's id and the process id, which is how the exported
    trace separates lanes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._epoch_wall_us = time.time() * 1e6
        self._epoch_mono = time.perf_counter()
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Clock and storage internals
    # ------------------------------------------------------------------ #
    def _to_wall_us(self, mono_s: float) -> float:
        """A monotonic reading as wall-aligned microseconds."""
        return self._epoch_wall_us + (mono_s - self._epoch_mono) * 1e6

    def _thread_stack(self) -> List[str]:
        """The calling thread's stack of open span names."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------------ #
    # Recording API
    # ------------------------------------------------------------------ #
    def span(self, name: str, category: str = "repro",
             **attributes: object) -> _ActiveSpan:
        """A context manager recording one complete span around its body."""
        return _ActiveSpan(self, name, category, dict(attributes))

    def complete(self, name: str, start_s: float, end_s: float,
                 category: str = "repro", **attributes: object) -> None:
        """Record one complete span between two ``perf_counter()`` readings.

        For an interval that began before the tracer was installed, such as
        interpreter start-up.
        """
        self._record(
            SpanRecord(
                name=name,
                category=category,
                phase="X",
                ts_us=self._to_wall_us(start_s),
                dur_us=(end_s - start_s) * 1e6,
                pid=os.getpid(),
                tid=threading.get_ident(),
                args=dict(attributes),
            )
        )

    def instant(self, name: str, category: str = "repro",
                **attributes: object) -> None:
        """Record one zero-duration instant event."""
        self._record(
            SpanRecord(
                name=name,
                category=category,
                phase="i",
                ts_us=self._to_wall_us(time.perf_counter()),
                dur_us=0.0,
                pid=os.getpid(),
                tid=threading.get_ident(),
                args=dict(attributes),
            )
        )

    # ------------------------------------------------------------------ #
    # Snapshot and export
    # ------------------------------------------------------------------ #
    def records(self) -> List[SpanRecord]:
        """A snapshot copy of the collected records."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def to_chrome_trace(
        self, metrics: Optional["MetricsRegistry"] = None
    ) -> Dict[str, object]:
        """The collected records as one Chrome-trace JSON object.

        With ``metrics`` given, one terminal counter sample per registered
        counter and gauge is appended, so the trace carries the process's
        final cache-tier / dispatch tallies alongside the span timeline.
        """
        events = [record.to_chrome_event() for record in self.records()]
        if metrics is not None:
            snapshot = metrics.snapshot()
            now_us = self._to_wall_us(time.perf_counter())
            pid, tid = os.getpid(), threading.get_ident()
            for section in ("counters", "gauges"):
                for name, value in snapshot[section].items():
                    events.append(
                        SpanRecord(
                            name=name,
                            category="metrics",
                            phase="C",
                            ts_us=now_us,
                            dur_us=0.0,
                            pid=pid,
                            tid=tid,
                            args={"value": value},
                        ).to_chrome_event()
                    )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs",
                "schema_version": TRACE_SCHEMA_VERSION,
            },
        }

    def write(self, path: str,
              metrics: Optional["MetricsRegistry"] = None) -> None:
        """Write the Chrome-trace JSON document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(metrics), handle)


# --------------------------------------------------------------------------- #
# The module-level instrumentation surface
# --------------------------------------------------------------------------- #
_ACTIVE: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process's active tracer, enabling tracing."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def uninstall_tracer() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was active, if any."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def active_tracer() -> Optional[Tracer]:
    """The currently installed tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def tracing_enabled() -> bool:
    """Whether a tracer is installed (instrumentation's cheap guard)."""
    return _ACTIVE is not None


def span(name: str, category: str = "repro", **attributes: object):
    """A span context manager on the active tracer (shared no-op when off)."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **attributes)


def instant(name: str, category: str = "repro", **attributes: object) -> None:
    """Record an instant on the active tracer (no-op when tracing is off)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, category, **attributes)


def write_chrome_trace(path: str, tracer: Optional[Tracer],
                       metrics: Optional["MetricsRegistry"] = None) -> None:
    """Write ``tracer``'s records (plus final metrics samples) to ``path``.

    Accepts ``None`` for ``tracer`` so CLI teardown can call it
    unconditionally with whatever :func:`uninstall_tracer` returned; an
    empty-but-valid trace document is still written in that case.
    """
    if tracer is None:
        tracer = Tracer()
    tracer.write(path, metrics)


def attach_pmu_tracing(pmu: "PowerManagementUnit") -> None:
    """Bridge a PMU's telemetry events into trace instants and counters.

    Registers a telemetry listener that mirrors every
    :class:`~repro.soc.pmu.PmuTelemetry` emission as a ``pmu.telemetry``
    instant (power state, workload type, TDP) and bumps the
    ``sim.pmu.telemetry_events`` counter -- so a simulation trace shows
    per-phase PMU activity on the same timeline as the engine spans.
    The listener is a no-op while tracing is disabled.  Attaching the same
    PMU twice is a no-op (a marker attribute guards re-registration), so
    engines may bridge unconditionally per run.
    """
    from repro.obs.metrics import METRICS

    if getattr(pmu, "_obs_telemetry_bridged", False):
        return
    telemetry_events = METRICS.counter("sim.pmu.telemetry_events")

    def _on_telemetry(telemetry: object) -> None:
        telemetry_events.inc()
        tracer = _ACTIVE
        if tracer is None:
            return
        tracer.instant(
            "pmu.telemetry",
            category="sim",
            power_state=str(getattr(telemetry, "power_state", None)),
            workload_type=str(getattr(telemetry, "workload_type", None)),
            tdp_w=getattr(telemetry, "tdp_w", None),
            application_ratio=getattr(telemetry, "application_ratio", None),
        )

    pmu.add_telemetry_listener(_on_telemetry)
    pmu._obs_telemetry_bridged = True
