"""Span tracer contracts: nesting, export, no-op path."""

from __future__ import annotations

import json

import pytest

from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import (
    _NULL_SPAN,
    SpanRecord,
    install_tracer,
    uninstall_tracer,
    write_chrome_trace,
)


@pytest.fixture
def tracer():
    """An installed tracer, uninstalled again after the test."""
    tracer = install_tracer()
    try:
        yield tracer
    finally:
        uninstall_tracer()


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Guarantee no tracer leaks across tests even on assertion failure."""
    yield
    uninstall_tracer()


class TestSpanRecording:
    def test_nested_spans_record_parent_and_containment(self, tracer):
        with obs_trace.span("outer", category="test", level=1):
            with obs_trace.span("inner", category="test") as inner:
                inner.set("answer", 42)
        by_name = {record.name: record for record in tracer.records()}
        assert set(by_name) == {"outer", "inner"}
        inner, outer = by_name["inner"], by_name["outer"]
        assert inner.args["parent"] == "outer"
        assert "parent" not in outer.args
        assert inner.args["answer"] == 42
        assert outer.args["level"] == 1
        # The inner span's interval nests inside the outer span's interval.
        assert outer.ts_us <= inner.ts_us
        assert inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + 1.0

    def test_instants_record_their_phase(self, tracer):
        obs_trace.instant("tick", category="test", n=1)
        assert [record.phase for record in tracer.records()] == ["i"]

    def test_spans_survive_exceptions(self, tracer):
        with pytest.raises(ValueError):
            with obs_trace.span("doomed", category="test"):
                raise ValueError("boom")
        assert [record.name for record in tracer.records()] == ["doomed"]


class TestDisabledPath:
    def test_disabled_span_is_the_shared_null_singleton(self):
        assert not obs_trace.tracing_enabled()
        assert obs_trace.span("anything", key="value") is _NULL_SPAN
        assert obs_trace.span("other") is _NULL_SPAN

    def test_disabled_helpers_record_nothing(self):
        obs_trace.instant("ignored")
        with obs_trace.span("ignored") as span:
            span.set("key", "value")
        tracer = install_tracer()
        assert len(tracer) == 0
        uninstall_tracer()


class TestChromeTraceExport:
    def test_round_trip_is_valid_chrome_trace_json(self, tracer, tmp_path):
        with obs_trace.span("outer", category="test"):
            with obs_trace.span("inner", category="test"):
                pass
        obs_trace.instant("mark", category="test")
        registry = MetricsRegistry()
        registry.counter("test.counter").inc(7)
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), uninstall_tracer(), registry)
        doc = json.loads(path.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["producer"] == "repro.obs"
        events = {event["name"]: event for event in doc["traceEvents"]}
        assert events["outer"]["ph"] == "X"
        assert events["outer"]["dur"] >= events["inner"]["dur"]
        assert events["inner"]["args"]["parent"] == "outer"
        assert events["mark"]["ph"] == "i"
        assert events["mark"]["s"] == "t"
        assert events["test.counter"]["ph"] == "C"
        assert events["test.counter"]["args"] == {"value": 7}

    def test_write_tolerates_no_tracer(self, tmp_path):
        path = tmp_path / "empty.json"
        write_chrome_trace(str(path), None, None)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] == []

    def test_span_record_is_picklable(self):
        import pickle

        record = SpanRecord(
            name="n", category="c", phase="X", ts_us=1.0, dur_us=2.0,
            pid=1, tid=2, args={"k": "v"},
        )
        assert pickle.loads(pickle.dumps(record)) == record


class TestPmuBridge:
    def test_attach_is_idempotent_and_emits_instants(self, tracer):
        from repro.obs import attach_pmu_tracing
        from repro.soc.pmu import PowerManagementUnit

        pmu = PowerManagementUnit(tdp_w=18.0)
        listeners_before = len(pmu._telemetry_listeners)
        attach_pmu_tracing(pmu)
        attach_pmu_tracing(pmu)  # second attach must not double-register
        assert len(pmu._telemetry_listeners) == listeners_before + 1
        assert pmu.has_telemetry_listeners
        assert getattr(pmu, "_obs_telemetry_bridged") is True
        before = METRICS.counter("sim.pmu.telemetry_events").value
        pmu.emit_telemetry()
        instants = [
            record for record in tracer.records()
            if record.name == "pmu.telemetry"
        ]
        assert len(instants) == 1
        assert METRICS.counter("sim.pmu.telemetry_events").value == before + 1
        args = instants[0].args
        assert {"power_state", "workload_type", "tdp_w"} <= set(args)
