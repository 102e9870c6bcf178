"""End-to-end daemon tests: bit-identity, failure paths, graceful shutdown.

These run a real :class:`EvaluationServer` on a background thread and speak
real HTTP through :class:`ServeClient` (and raw sockets for the malformed
cases), covering the serving contract:

* server responses rebuild into result sets **bit-identical** to local
  engine runs (sweep, simulate, optimize);
* failures are well-formed JSON with the documented status codes (400 with
  a schema pointer, 404/405, 408 read timeout, 413 budget, 504 deadline,
  and 200/``partial`` when the request allows it);
* a graceful shutdown finishes in-flight evaluations while refusing new
  ones, and overlapping HTTP requests single-flight per cache key.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.optimize import run_optimization
from repro.serve import ServeClient, ServerError, ServerUnavailable, start_in_thread
from repro.serve.protocol import (
    build_optimize_space,
    build_simulate_study,
    build_sweep_study,
)
from repro.sim.study import SimEngine
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def server_cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("serve-cache"))


@pytest.fixture(scope="module")
def warm_server(server_cache_dir):
    """One daemon shared by the happy-path tests (module-scoped: stays warm)."""
    with start_in_thread(cache_dir=server_cache_dir) as handle:
        yield handle


@pytest.fixture(scope="module")
def client(warm_server):
    return ServeClient(warm_server.base_url)


def gate_tdp50(server):
    """Make the server's analytic engine block on every 50 W evaluation.

    Returns ``(gate, counts)``: release the gate to let the evaluations
    land; ``counts`` tallies real evaluations per ``(pdn, tdp)``.
    """
    gate = threading.Event()
    counts = Counter()
    original = server._spot.evaluate_columns

    def gated(units):
        if any(getattr(point, "tdp_w", None) == 50.0 for _, point, _ in units):
            assert gate.wait(timeout=30.0), "test gate never released"
        counts.update((name, getattr(point, "tdp_w", None)) for name, point, _ in units)
        return original(units)

    server._spot.evaluate_columns = gated
    return gate, counts


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError("condition not reached in time")


# --------------------------------------------------------------------------- #
# Bit-identity with local engines
# --------------------------------------------------------------------------- #
class TestBitIdentity:
    def test_sweep_matches_local_engine(self, client):
        response = client.sweep(
            tdps=[4.0, 18.0], ars=[0.4, 0.8], pdns=["FlexWatts", "LDO"]
        )
        local = PdnSpot().run(
            build_sweep_study([4.0, 18.0], [0.4, 0.8], pdns=["FlexWatts", "LDO"])
        )
        assert response.status == "ok"
        assert response.resultset == local
        assert response.resultset.to_json() == local.to_json()

    def test_simulate_matches_local_engine(self, client):
        response = client.simulate(
            scenarios=["bursty-interactive"], tdps=[18.0], pdns=["FlexWatts", "IVR"]
        )
        local = SimEngine().run(
            build_simulate_study(
                ["bursty-interactive"], [18.0], pdns=["FlexWatts", "IVR"]
            )
        )
        assert response.resultset.to_json() == local.to_json()

    def test_optimize_matches_local_runner(self, client):
        response = client.optimize(pdns=["FlexWatts", "LDO", "MBVR"], budget=6)
        local = run_optimization(
            build_optimize_space(["FlexWatts", "LDO", "MBVR"]), budget=6, seed=0
        )
        assert response.strategy == local.strategy == "grid"
        assert response.resultset.to_json() == local.results.to_json()
        # The marker columns reconstruct the front and knee exactly.
        front = response.resultset.filter(pareto=True)
        assert front.to_json() == local.front.to_json()
        knee_rows = response.resultset.filter(knee=True).to_records()
        assert len(knee_rows) == 1
        assert knee_rows[0] == local.knee

    def test_repeated_request_is_served_from_cache(self, client, warm_server):
        first = client.sweep(tdps=[4.0], pdns=["IVR", "LDO"])
        spot_info = warm_server.server._spot.cache_info()
        second = client.sweep(tdps=[4.0], pdns=["IVR", "LDO"])
        assert first.resultset.to_json() == second.resultset.to_json()
        after = warm_server.server._spot.cache_info()
        assert after.misses == spot_info.misses  # nothing recomputed
        assert after.hits >= spot_info.hits + 2


# --------------------------------------------------------------------------- #
# Introspection
# --------------------------------------------------------------------------- #
class TestIntrospection:
    def test_healthz(self, client):
        from repro import __version__

        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["draining"] is False
        assert payload["version"] == __version__

    def test_stats_document_shape(self, client):
        client.sweep(tdps=[4.0], pdns=["IVR"])
        client.sweep(tdps=[4.0], pdns=["IVR"])  # dispatched again, from cache
        stats = client.stats()
        assert set(stats) == {"server", "endpoints", "coalescer", "cache"}
        assert stats["server"]["uptime_s"] > 0
        sweep_stats = stats["endpoints"]["sweep"]
        assert sweep_stats["requests"] >= 1
        histogram = sweep_stats["latency"]
        assert histogram["count"] == sweep_stats["requests"]
        assert sum(histogram["buckets"].values()) == histogram["count"]
        coalescer = stats["coalescer"]["sweep"]
        assert coalescer["keys_dispatched"] >= 1
        assert coalescer["keys_from_cache"] >= 1
        assert list(coalescer)[-1] == "keys_from_cache"
        memory = stats["cache"]["memory"]
        assert {"pdnspot", "sim", "sim_phases"} <= set(memory)
        assert {"hits", "misses", "hit_rate", "size"} == set(memory["pdnspot"])

    def test_disk_stats_schema_is_shared_with_cache_cli(
        self, client, server_cache_dir
    ):
        """Satellite contract: GET /v1/stats "disk" and `repro cache stats
        --json` emit the same document through the same helper."""
        from repro.cli import run_cache_command

        client.simulate(scenarios=["race-to-idle"], tdps=[4.0], pdns=["IVR"])
        # The simulation above made sure the disk tier holds rows.
        stats = client.stats()
        cli_payload = json.loads(
            run_cache_command("stats", server_cache_dir, as_json=True)
        )
        assert stats["cache"]["disk"] == cli_payload
        assert set(stats["cache"]["disk"]) == {
            "schema_version",
            "cache_dir",
            "namespaces",
            "io",
        }
        assert set(stats["cache"]["disk"]["io"]) == {"get", "put", "self_heal"}
        assert list(stats["cache"]["disk"]["namespaces"]) == ["sim"]

    def test_sweep_writes_nothing_to_the_disk_tier(self, client, server_cache_dir):
        """Analytic points are recomputed, never persisted."""
        from repro.cache import cache_dir_summary

        before = cache_dir_summary(server_cache_dir)
        client.sweep(tdps=[7.5], ars=[0.33], pdns=["IVR", "LDO"])
        assert cache_dir_summary(server_cache_dir) == before


# --------------------------------------------------------------------------- #
# Failure paths: well-formed JSON errors
# --------------------------------------------------------------------------- #
class TestFailurePaths:
    def test_schema_violation_is_400_with_pointer(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.sweep(tdps=[4.0], workloads=["mining"])
        assert excinfo.value.code == 400
        assert excinfo.value.pointer == "body/workloads/0"

    def test_missing_required_field_is_400_with_pointer(self, warm_server):
        raw = _raw_post(warm_server, "/v1/sweep", b"{}")
        assert raw.status == 400
        payload = json.loads(raw.body)
        assert payload["status"] == "error"
        assert payload["code"] == 400
        assert payload["pointer"] == "body/tdps"

    def test_malformed_json_body_is_400(self, warm_server):
        raw = _raw_post(warm_server, "/v1/sweep", b"{not json")
        assert raw.status == 400
        payload = json.loads(raw.body)
        assert payload["pointer"] == "body"
        assert "not valid JSON" in payload["error"]

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._exchange("GET", "/v1/nope")
        assert excinfo.value.code == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServerError) as excinfo:
            client._exchange("GET", "/v1/sweep")
        assert excinfo.value.code == 405

    def test_unknown_pdn_is_400(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.sweep(tdps=[4.0], pdns=["NotAPdn"])
        assert excinfo.value.code == 400

    def test_over_budget_request_is_413(self):
        with start_in_thread(max_units=3) as handle:
            client = ServeClient(handle.base_url)
            with pytest.raises(ServerError) as excinfo:
                client.sweep(tdps=[4.0, 18.0], pdns=["IVR", "LDO"])  # 4 units
            assert excinfo.value.code == 413
            assert excinfo.value.payload["budget"] == 3
            assert excinfo.value.payload["units"] == 4
            # A within-budget request still works.
            ok = client.sweep(tdps=[4.0], pdns=["IVR"])
            assert ok.status == "ok"

    def test_stalled_request_body_is_408(self):
        with start_in_thread(read_timeout_s=0.2) as handle:
            with socket.create_connection(
                ("127.0.0.1", handle.server.port), timeout=10.0
            ) as stalled:
                stalled.sendall(b"POST /v1/sweep HTTP/1.1\r\n")  # never finishes
                raw = stalled.makefile("rb").read()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"408" in head.split(b"\r\n", 1)[0]
        payload = json.loads(body)
        assert payload["code"] == 408
        assert payload["status"] == "error"


    def test_stalled_headers_are_408(self):
        with start_in_thread(read_timeout_s=0.2) as handle:
            with socket.create_connection(
                ("127.0.0.1", handle.server.port), timeout=10.0
            ) as stalled:
                stalled.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n")
                raw = stalled.makefile("rb").read()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"408" in head.split(b"\r\n", 1)[0]
        assert json.loads(body)["error"] == "timed out reading request headers"

    def test_bare_lf_request_head_is_accepted(self, warm_server):
        with socket.create_connection(
            ("127.0.0.1", warm_server.server.port), timeout=10.0
        ) as bare:
            bare.sendall(b"GET /v1/healthz HTTP/1.1\nHost: x\nConnection: close\n\n")
            raw = bare.makefile("rb").read()
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert json.loads(body)["status"] == "ok"


def _raw_post(handle, path: str, body: bytes):
    """POST a raw (possibly invalid) body, bypassing the client's encoder."""
    connection = http.client.HTTPConnection("127.0.0.1", handle.server.port, timeout=30)
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()

        class Raw:
            status = response.status
            body = response.read()

        return Raw
    finally:
        connection.close()


# --------------------------------------------------------------------------- #
# Deadlines: 504, partial results, and single-flight across real HTTP
# --------------------------------------------------------------------------- #
class TestDeadlines:
    def test_timeout_is_504_and_partial_returns_completed_units(self):
        with start_in_thread() as handle:
            gate, counts = gate_tdp50(handle.server)
            client = ServeClient(handle.base_url)
            try:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    blocked = pool.submit(
                        client.sweep, tdps=[50.0], pdns=["IVR"], timeout_s=60.0
                    )
                    wait_until(lambda: handle.server._sweep_coalescer.in_flight > 0)

                    # No allow_partial: the deadline is a hard 504.
                    with pytest.raises(ServerError) as excinfo:
                        client.sweep(tdps=[50.0], pdns=["IVR"], timeout_s=0.2)
                    assert excinfo.value.code == 504
                    assert excinfo.value.payload["timeout_s"] == 0.2

                    # allow_partial: the completed subset comes back as 200.
                    partial = client.sweep(
                        tdps=[4.0, 50.0],
                        pdns=["IVR"],
                        timeout_s=2.0,
                        allow_partial=True,
                    )
                    assert partial.partial
                    assert partial.status == "partial"
                    assert (partial.completed_units, partial.total_units) == (1, 2)
                    rows = partial.resultset.to_records()
                    assert [row["tdp_w"] for row in rows] == [4.0]

                    gate.set()
                    full = blocked.result(timeout=30.0)
                    assert full.status == "ok"
                    assert len(full.resultset.to_records()) == 1
            finally:
                gate.set()
            # Three requests wanted (IVR, 50 W); it was evaluated once.
            assert counts[("IVR", 50.0)] == 1


# --------------------------------------------------------------------------- #
# Failed dispatches
# --------------------------------------------------------------------------- #
def fail_at(server, tdp_w: float, error: Exception) -> None:
    """Make every analytic batch holding a ``tdp_w`` unit raise ``error``."""
    original = server._spot.evaluate_columns

    def failing(units):
        if any(getattr(point, "tdp_w", None) == tdp_w for _, point, _ in units):
            raise error
        return original(units)

    server._spot.evaluate_columns = failing


class TestDispatchFailures:
    def test_failed_dispatch_is_400_without_waiting_for_slow_units(self):
        with start_in_thread() as handle:
            gate, _ = gate_tdp50(handle.server)
            fail_at(handle.server, 33.0, ConfigurationError("no model at 33 W"))
            client = ServeClient(handle.base_url)
            try:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    blocked = pool.submit(client.sweep, tdps=[50.0], pdns=["IVR"])
                    wait_until(lambda: handle.server._sweep_coalescer.in_flight > 0)
                    started = time.monotonic()
                    # 50 W joins the gated batch; 33 W fails in its own.
                    with pytest.raises(ServerError) as excinfo:
                        client.sweep(tdps=[33.0, 50.0], pdns=["IVR"], timeout_s=20.0)
                    assert time.monotonic() - started < 10.0
                    assert not gate.is_set()
                    assert excinfo.value.code == 400
                    assert "no model at 33 W" in str(excinfo.value)
                    gate.set()
                    assert blocked.result(timeout=30.0).status == "ok"
            finally:
                gate.set()

    def test_unexpected_dispatch_error_is_500(self):
        with start_in_thread() as handle:
            fail_at(handle.server, 33.0, RuntimeError("kaput"))
            with pytest.raises(ServerError) as excinfo:
                ServeClient(handle.base_url).sweep(tdps=[33.0], pdns=["IVR"])
            assert excinfo.value.code == 500
            assert "kaput" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Graceful shutdown
# --------------------------------------------------------------------------- #
class TestGracefulShutdown:
    def test_drain_finishes_inflight_and_refuses_new_requests(self):
        handle = start_in_thread()
        gate, _ = gate_tdp50(handle.server)
        client = ServeClient(handle.base_url)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                blocked = pool.submit(
                    client.sweep, tdps=[50.0], pdns=["IVR"], timeout_s=60.0
                )
                wait_until(lambda: handle.server._sweep_coalescer.in_flight > 0)

                handle.server.request_shutdown()
                wait_until(lambda: client.healthz()["draining"] is True)
                assert client.healthz()["status"] == "draining"

                # New evaluation requests are refused while draining...
                with pytest.raises(ServerError) as excinfo:
                    client.sweep(tdps=[4.0], pdns=["IVR"])
                assert excinfo.value.code == 503
                # ...but the observability surface keeps answering.
                assert client.stats()["server"]["draining"] is True

                # The in-flight request completes, then the server exits.
                gate.set()
                response = blocked.result(timeout=30.0)
                assert response.status == "ok"
                assert len(response.resultset.to_records()) == 1
        finally:
            gate.set()
        handle.thread.join(timeout=30.0)
        assert not handle.thread.is_alive()
        with pytest.raises(ServerUnavailable):
            client.healthz()
