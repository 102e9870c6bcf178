"""``GET /v1/metrics``: schema, draining behaviour, concurrent load."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import METRICS_SCHEMA_VERSION
from repro.serve.client import ServeClient
from repro.serve.server import start_in_thread


@pytest.fixture(scope="module")
def running_server():
    """One warm in-process server shared by the module's tests."""
    with start_in_thread(cache_dir=None) as handle:
        yield handle


@pytest.fixture
def client(running_server):
    """A client bound to the module's running server."""
    return ServeClient(running_server.base_url)


class TestMetricsEndpoint:
    def test_document_shape(self, client):
        client.sweep(tdps=[4.0], pdns=["IVR"])
        payload = client.metrics()
        assert set(payload) == {"schema_version", "metrics", "tracing"}
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        metrics = payload["metrics"]
        assert set(metrics) == {
            "schema_version", "counters", "gauges", "histograms",
        }
        assert payload["tracing"] == {"enabled": False, "spans": 0}

    def test_serve_and_engine_counters_appear(self, client):
        client.sweep(tdps=[4.0], pdns=["IVR"])
        counters = client.metrics()["metrics"]["counters"]
        assert counters["serve.requests"] >= 1
        # The sweep above ran through the dispatch seam of this process.
        assert "executor.chunks" in counters
        assert "cache.lookup.misses" in counters

    def test_post_is_rejected_with_405(self, running_server):
        import json
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            running_server.base_url + "/v1/metrics",
            data=b"{}",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 405
        payload = json.loads(excinfo.value.read())
        assert payload["status"] == "error"

    def test_unknown_path_404_lists_metrics_endpoint(self, running_server):
        import json
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                running_server.base_url + "/v1/nonsense", timeout=10
            )
        assert excinfo.value.code == 404
        payload = json.loads(excinfo.value.read())
        assert "/v1/metrics" in payload["error"]

    def test_concurrent_load_returns_consistent_documents(self, client):
        """Hammer /v1/metrics while sweeps mutate the registry underneath."""

        def read_metrics(_):
            return client.metrics()

        def run_sweep(tdp):
            return client.sweep(tdps=[tdp], pdns=["IVR", "LDO"])

        with ThreadPoolExecutor(max_workers=8) as pool:
            sweep_futures = [
                pool.submit(run_sweep, tdp) for tdp in (5.0, 7.0, 9.0, 11.0)
            ]
            metric_futures = [pool.submit(read_metrics, i) for i in range(24)]
            documents = [future.result() for future in metric_futures]
            for future in sweep_futures:
                future.result()
        for document in documents:
            assert document["schema_version"] == METRICS_SCHEMA_VERSION
            counters = document["metrics"]["counters"]
            assert all(value >= 0 for value in counters.values())
        # Request counts are monotonic across the concurrent snapshots.
        requests = [
            document["metrics"]["counters"].get("serve.requests", 0)
            for document in documents
        ]
        assert max(requests) >= 1
