"""A traced daemon: every request's lifecycle spans, response write included."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.obs.trace import install_tracer, uninstall_tracer
from repro.serve.server import start_in_thread


def _post(port: int, path: str, body: dict):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", path, json.dumps(body),
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


@pytest.fixture
def traced_exchanges():
    """Serve one sweep and one 400 under a live tracer; return spans and bodies."""
    tracer = install_tracer()
    try:
        with start_in_thread() as handle:
            port = handle.server.port
            ok = _post(port, "/v1/sweep", {"tdps": [4.0], "pdns": ["IVR", "LDO"]})
            bad = _post(port, "/v1/sweep", {"tdps": [4.0], "pdns": ["NotAPdn"]})
    finally:
        uninstall_tracer()
    spans = [record for record in tracer.records() if record.phase == "X"]
    return spans, ok, bad


def test_request_lifecycle_spans(traced_exchanges):
    spans, _, _ = traced_exchanges
    names = {record.name for record in spans}
    for required in ("serve.request", "serve.parse", "serve.dispatch",
                     "serve.coalescer.flush", "serve.reassemble", "serve.respond"):
        assert required in names, f"missing span {required!r}"


def test_respond_span_counts_the_written_bytes(traced_exchanges):
    spans, ok, bad = traced_exchanges
    respond = [record for record in spans if record.name == "serve.respond"]
    assert [(record.args["status"], record.args["bytes"]) for record in respond] == [
        (ok[0], len(ok[1])),
        (bad[0], len(bad[1])),
    ]
    assert (ok[0], bad[0]) == (200, 400)


def test_encoding_runs_after_the_request_span(traced_exchanges):
    spans, _, _ = traced_exchanges
    requests = [record for record in spans if record.name == "serve.request"]
    respond = [record for record in spans if record.name == "serve.respond"]
    assert len(requests) == len(respond) == 2
    for request, written in zip(requests, respond):
        assert request.ts_us + request.dur_us <= written.ts_us
        assert "parent" not in written.args
