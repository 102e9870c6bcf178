"""Served response bodies, byte for byte.

The daemon writes an evaluation response's result set straight from
``ResultSet.to_json(indent=2)`` into the envelope instead of decoding and
re-encoding it.  These tests pin the wire bytes to the construction that
round-trips the result set through ``json``:
``json.dumps({**envelope, "resultset": json.loads(local.to_json())},
indent=2) + "\\n"``, with ``local`` the result set a local engine run
returns for the same request.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time

import pytest

from repro import PdnSpot, run_sim
from repro.analysis.resultset import ResultSet
from repro.optimize import run_optimization
from repro.power.power_states import PackageCState
from repro.serve import start_in_thread
from repro.serve.protocol import (
    build_optimize_space,
    build_simulate_study,
    build_sweep_study,
)
from repro.serve.server import _json_body


def expected_body(envelope, local: ResultSet) -> bytes:
    """The response body of ``envelope`` carrying ``local``, via ``json``."""
    payload = {**envelope, "resultset": json.loads(local.to_json())}
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def raw_exchange(port: int, method: str, path: str, body=None):
    """One HTTP exchange on a plain socket: ``(status, headers, body)``."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    )
    with socket.create_connection(("127.0.0.1", port), timeout=60.0) as sock:
        sock.sendall(head.encode("ascii") + data)
        raw = sock.makefile("rb").read()
    head_bytes, _, payload = raw.partition(b"\r\n\r\n")
    lines = head_bytes.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert int(headers["Content-Length"]) == len(payload)
    return int(lines[0].split()[1]), headers, payload


@pytest.fixture(scope="module")
def server():
    with start_in_thread() as handle:
        yield handle


class TestServedBytes:
    def test_sweep_with_idle_power_states(self, server):
        body = {
            "tdps": [4.0, 18.0],
            "ars": [0.4, 0.56],
            "power_states": ["C2", "C6", "C8"],
            "pdns": ["FlexWatts", "IVR", "LDO"],
        }
        status, _, payload = raw_exchange(server.server.port, "POST", "/v1/sweep", body)
        local = PdnSpot().run(
            build_sweep_study(
                body["tdps"],
                body["ars"],
                power_states=[PackageCState(name) for name in body["power_states"]],
                pdns=body["pdns"],
            )
        )
        assert "power_state" in local.columns
        assert status == 200
        assert payload == expected_body({"status": "ok", "endpoint": "sweep"}, local)

    def test_simulate(self, server):
        body = {"scenarios": ["bursty-interactive"], "tdps": [4.0, 18.0], "seed": 2}
        status, _, payload = raw_exchange(
            server.server.port, "POST", "/v1/simulate", body
        )
        local = run_sim(build_simulate_study(body["scenarios"], body["tdps"], seed=2))
        assert status == 200
        assert payload == expected_body({"status": "ok", "endpoint": "simulate"}, local)

    def test_optimize_with_strategy_and_parameters(self, server):
        # A sweep takes no parameter overrides; an optimize response is the
        # served table with a ``parameters`` dict column.
        body = {
            "objectives": ["etee", "area"],
            "strategy": "random",
            "budget": 6,
            "seed": 3,
            "pdns": ["FlexWatts", "LDO"],
            "params": {"ivr_tolerance_band_v": [0.01, 0.02]},
        }
        status, _, payload = raw_exchange(
            server.server.port, "POST", "/v1/optimize", body
        )
        outcome = run_optimization(
            build_optimize_space(body["pdns"], list(body["params"].items())),
            objectives=body["objectives"],
            strategy=body["strategy"],
            budget=body["budget"],
            seed=body["seed"],
        )
        assert "parameters" in outcome.results.columns
        assert status == 200
        envelope = {"status": "ok", "endpoint": "optimize", "strategy": "random"}
        assert payload == expected_body(envelope, outcome.results)

    def test_schema_error(self, server):
        status, headers, payload = raw_exchange(
            server.server.port, "POST", "/v1/sweep", {"tdps": [4.0], "pdns": ["NotAPdn"]}
        )
        assert status == 400
        assert headers["Content-Type"] == "application/json"
        error = json.loads(payload)["error"]
        assert "NotAPdn" in error
        expected = {"status": "error", "code": 400, "error": error}
        assert payload == (json.dumps(expected, indent=2) + "\n").encode("utf-8")


def test_partial_sweep_bytes():
    """A deadline-cut sweep: the completed rows, spliced the same way."""
    with start_in_thread() as handle:
        gate = threading.Event()
        spot = handle.server._spot
        original = spot.evaluate_columns

        def gated(units):
            if any(getattr(point, "tdp_w", None) == 47.0 for _, point, _ in units):
                assert gate.wait(timeout=30.0), "test gate never released"
            return original(units)

        spot.evaluate_columns = gated
        port = handle.server.port
        blocked = threading.Thread(
            target=raw_exchange,
            args=(port, "POST", "/v1/sweep", {"tdps": [47.0], "pdns": ["IVR"]}),
        )
        blocked.start()
        try:
            deadline = time.monotonic() + 10.0
            while handle.server._sweep_coalescer.in_flight == 0:
                assert time.monotonic() < deadline, "gated unit never dispatched"
                time.sleep(0.01)
            body = {
                "tdps": [4.0, 47.0],
                "pdns": ["IVR"],
                "timeout_s": 0.5,
                "allow_partial": True,
            }
            status, _, payload = raw_exchange(port, "POST", "/v1/sweep", body)
        finally:
            gate.set()
            blocked.join(timeout=30.0)
    local = PdnSpot().run(build_sweep_study([4.0], pdns=["IVR"]))
    envelope = {
        "status": "partial",
        "endpoint": "sweep",
        "completed_units": 1,
        "total_units": 2,
        "timeout_s": 0.5,
    }
    assert status == 200
    assert payload == expected_body(envelope, local)


@pytest.mark.parametrize(
    "resultset",
    [
        ResultSet.from_records(
            [
                {"pdn": "IVR", "etee": float("nan"), "parameters": {"a": [1.5, 2]}},
                {"pdn": "LDO", "etee": -math.inf, "parameters": {"b": {"c": None}}},
                {"pdn": "MBVR", "etee": 0.5, "label": "knee"},
            ],
            name="tableau-été-✓",
        ),
        ResultSet({"pdn": [], "etee": []}, name="empty"),
        ResultSet({}),
    ],
    ids=["masked-nested-non-ascii", "zero-rows", "no-columns"],
)
def test_json_body_splices_the_resultset(resultset):
    envelope = {"status": "partial", "endpoint": "sweep", "completed_units": 2,
                "total_units": 3, "timeout_s": 0.25}
    body = _json_body({**envelope, "resultset": resultset})
    assert body == expected_body(envelope, resultset)
    assert json.loads(body)["resultset"] == json.loads(resultset.to_json())


def test_json_body_of_plain_payloads_is_json_dumps():
    payload = {"status": "error", "code": 504, "error": "déjà", "timeout_s": 0.2}
    assert _json_body(payload) == (json.dumps(payload, indent=2) + "\n").encode()
