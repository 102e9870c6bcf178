"""Metrics registry contracts: schema stability, reset semantics, wrappers."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS_S,
    METRICS,
    METRICS_SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
    bucket_label,
)


class TestInstruments:
    def test_counter_accumulates_and_is_thread_safe(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("hits")
        counter.inc(3)
        counter.inc(0)
        with pytest.raises(ValueError, match=">= 0"):
            counter.inc(-1)
        assert counter.value == 3

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_buckets_and_sum(self):
        histogram = Histogram(bounds=(0.1, 1.0, math.inf))
        for value in (0.05, 0.5, 2.0, 100.0):
            histogram.observe(value)
        payload = histogram.as_dict()
        assert payload["count"] == 4
        assert payload["sum"] == pytest.approx(102.55)
        assert payload["buckets"] == {"0.1": 1, "1": 1, "inf": 2}

    def test_histogram_sum_key_override(self):
        histogram = Histogram(bounds=(1.0, math.inf))
        histogram.observe(0.5)
        assert "sum_s" in histogram.as_dict(sum_key="sum_s")

    def test_bucket_label_formats(self):
        assert bucket_label(math.inf) == "inf"
        assert bucket_label(0.0025) == "0.0025"
        assert bucket_label(1.0) == "1"


class TestRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_schema_is_stable(self):
        """The contract behind GET /v1/metrics and the trace counter track."""
        registry = MetricsRegistry()
        registry.counter("z.count").inc(2)
        registry.counter("a.count").inc()
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(0.01)
        snapshot = registry.snapshot()
        assert set(snapshot) == {
            "schema_version", "counters", "gauges", "histograms",
        }
        assert snapshot["schema_version"] == METRICS_SCHEMA_VERSION
        assert list(snapshot["counters"]) == ["a.count", "z.count"]
        assert snapshot["counters"]["z.count"] == 2
        assert snapshot["gauges"] == {"g": 1.0}
        histogram = snapshot["histograms"]["h"]
        assert set(histogram) == {"count", "sum", "buckets"}
        assert list(histogram["buckets"]) == [
            bucket_label(bound) for bound in DEFAULT_LATENCY_BOUNDS_S
        ]

    def test_reset_zeroes_in_place_preserving_bindings(self):
        """Import-time-bound instruments must survive a registry reset."""
        registry = MetricsRegistry()
        counter = registry.counter("bound")
        histogram = registry.histogram("lat")
        counter.inc(5)
        histogram.observe(0.2)
        registry.reset()
        assert counter.value == 0
        assert histogram.count == 0
        # The binding still feeds the snapshot after the reset.
        counter.inc()
        assert registry.snapshot()["counters"]["bound"] == 1
        assert registry.counter("bound") is counter


class TestServeStatsWrappers:
    def test_latency_histogram_payload_matches_pr6_schema(self):
        """Satellite contract: the /v1/stats histogram shape is byte-stable
        across the rewrite onto repro.obs.metrics."""
        from repro.serve.stats import LatencyHistogram

        histogram = LatencyHistogram()
        for value in (0.0005, 0.003, 0.8, 45.0):
            histogram.observe(value)
        payload = histogram.as_dict()
        # Exactly the PR 6 document: count, sum_s, then one label per bound.
        assert list(payload) == ["count", "sum_s", "buckets"]
        assert payload["count"] == 4
        assert payload["sum_s"] == pytest.approx(0.0005 + 0.003 + 0.8 + 45.0)
        expected_labels = [
            "inf" if math.isinf(bound) else f"{bound:g}"
            for bound in DEFAULT_LATENCY_BOUNDS_S
        ]
        assert list(payload["buckets"]) == expected_labels
        assert payload["buckets"]["0.001"] == 1
        assert payload["buckets"]["0.005"] == 1
        assert payload["buckets"]["1"] == 1
        assert payload["buckets"]["inf"] == 1
        assert sum(payload["buckets"].values()) == payload["count"]

    def test_endpoint_stats_payload_shape_and_registry_mirror(self):
        from repro.serve.stats import EndpointStats

        requests_before = METRICS.counter("serve.requests").value
        errors_before = METRICS.counter("serve.errors").value
        stats = EndpointStats()
        stats.observe(0.02, error=False)
        stats.observe(0.04, error=True)
        payload = stats.as_dict()
        assert list(payload) == ["requests", "errors", "latency"]
        assert payload["requests"] == 2
        assert payload["errors"] == 1
        assert payload["latency"]["count"] == 2
        assert METRICS.counter("serve.requests").value == requests_before + 2
        assert METRICS.counter("serve.errors").value == errors_before + 1
