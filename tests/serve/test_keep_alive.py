"""Persistent HTTP/1.1 connections: the server's framing and close rules,
and ``ServeClient``'s connection pool.

Raw-socket tests read each response by its ``Content-Length`` (never to
EOF, unless the connection is expected to close), so they see exactly the
bytes the server frames and whether it closed the connection afterwards.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.obs.metrics import METRICS
from repro.serve.client import ServeClient, ServerError, ServerUnavailable
from repro.serve.server import start_in_thread

CONNECTIONS = METRICS.counter("serve.connections")

SWEEP = {"tdps": [4.0], "ars": [0.5], "pdns": ["IVR", "LDO"]}


def request(method: str, path: str, body=None, version: str = "HTTP/1.1",
            headers: str = "") -> bytes:
    """One request's bytes (``headers``: extra CRLF-terminated lines)."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} {version}\r\nHost: 127.0.0.1\r\n{headers}"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("ascii") + data


def read_response(stream):
    """``(status, headers, body)`` of the next response on ``stream``."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while True:
        line = stream.readline()
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def connect(handle) -> socket.socket:
    return socket.create_connection(("127.0.0.1", handle.server.port), timeout=10.0)


@pytest.fixture(scope="module")
def server():
    with start_in_thread() as handle:
        yield handle


class TestOneConnectionManyExchanges:
    def test_three_requests_on_one_socket(self, server):
        before = CONNECTIONS.value
        with connect(server) as sock:
            stream = sock.makefile("rb")
            for method, path, body in [
                ("GET", "/v1/healthz", None),
                ("POST", "/v1/sweep", SWEEP),
                ("GET", "/v1/healthz", None),
            ]:
                sock.sendall(request(method, path, body))
                status, headers, payload = read_response(stream)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(payload)["status"] == "ok"
        assert CONNECTIONS.value - before == 1

    def test_pipelined_requests_are_answered_in_order(self, server):
        with connect(server) as sock:
            sock.sendall(request("POST", "/v1/sweep", SWEEP)
                         + request("GET", "/v1/healthz"))
            stream = sock.makefile("rb")
            first = read_response(stream)
            second = read_response(stream)
        assert first[0] == second[0] == 200
        assert json.loads(first[2])["endpoint"] == "sweep"
        assert "version" in json.loads(second[2])


class TestClosingResponses:
    """A response closes its connection: the server writes the response,
    then EOF."""

    @staticmethod
    def exchange_then_eof(handle, raw: bytes):
        with connect(handle) as sock:
            sock.sendall(raw)
            stream = sock.makefile("rb")
            response = read_response(stream)
            assert stream.read() == b""  # nothing after the one response
        return response

    def test_connection_close_is_honoured(self, server):
        status, headers, _ = self.exchange_then_eof(
            server, request("GET", "/v1/healthz", headers="Connection: close\r\n")
        )
        assert status == 200
        assert headers["connection"] == "close"

    def test_http_1_0_closes(self, server):
        status, headers, _ = self.exchange_then_eof(
            server, request("GET", "/v1/healthz", version="HTTP/1.0")
        )
        assert status == 200
        assert headers["connection"] == "close"

    def test_chunked_body_closes(self, server):
        # Only Content-Length bodies are read: the chunks are never parsed.
        status, headers, _ = self.exchange_then_eof(
            server,
            b"GET /v1/healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"1a\r\nGET /v1/healthz HTTP/1.1\r\n\r\n0\r\n\r\n",
        )
        assert status == 200
        assert headers["connection"] == "close"

    def test_413_with_its_body_unread_closes(self):
        with start_in_thread(max_body_bytes=16) as handle:
            # The unread body looks like a request: it must never be parsed.
            raw = (b"POST /v1/sweep HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   b"Content-Length: 4096\r\n\r\n" + request("GET", "/v1/healthz"))
            status, headers, payload = self.exchange_then_eof(handle, raw)
        assert status == 413
        assert headers["connection"] == "close"
        assert json.loads(payload)["code"] == 413

    def test_400_closes_before_the_next_request(self, server):
        status, headers, payload = self.exchange_then_eof(
            server, b"BROKEN\r\n\r\n" + request("GET", "/v1/healthz")
        )
        assert status == 400
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"] == "malformed HTTP request line"


class TestIdleAndStalledConnections:
    def test_silent_idle_connection_closes_without_a_response(self):
        with start_in_thread(read_timeout_s=0.2) as handle:
            with connect(handle) as sock:
                started = time.monotonic()
                assert sock.makefile("rb").read() == b""
                elapsed = time.monotonic() - started
        assert 0.15 <= elapsed < 5.0

    def test_idle_after_an_exchange_closes_without_a_response(self):
        with start_in_thread(read_timeout_s=0.2) as handle:
            with connect(handle) as sock:
                sock.sendall(request("GET", "/v1/healthz"))
                stream = sock.makefile("rb")
                status, headers, _ = read_response(stream)
                assert (status, headers["connection"]) == (200, "keep-alive")
                assert stream.read() == b""

    def test_stalled_request_line_is_408(self):
        with start_in_thread(read_timeout_s=0.2) as handle:
            with connect(handle) as sock:
                sock.sendall(b"GET /v1/hea")  # started, never finished
                stream = sock.makefile("rb")
                status, headers, payload = read_response(stream)
                assert stream.read() == b""
        assert status == 408
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"] == "timed out waiting for the request line"

    def test_shutdown_closes_idle_connections_at_once(self):
        """One connection idle after an exchange, one that never sent a
        byte: neither holds shutdown up for the 30 s read timeout."""
        handle = start_in_thread()
        socks = [connect(handle) for _ in range(2)]
        try:
            socks[0].sendall(request("GET", "/v1/healthz"))
            streams = [sock.makefile("rb") for sock in socks]
            assert read_response(streams[0])[1]["connection"] == "keep-alive"
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 1.0
            assert [stream.read() for stream in streams] == [b"", b""]
        finally:
            for sock in socks:
                sock.close()


class TestClientPool:
    def test_one_thread_reuses_one_connection(self, server):
        before = CONNECTIONS.value
        with ServeClient(server.base_url) as client:
            for index in range(20):
                if index % 2:
                    assert client.healthz()["status"] == "ok"
                else:
                    assert client.sweep(**SWEEP).status == "ok"
        assert CONNECTIONS.value - before == 1

    def test_threads_sharing_a_client_never_share_a_connection(self, server):
        """More threads than cores on one client, switching often: a lost
        update to the pool would hand one connection to two threads, whose
        interleaved exchanges would then fail or cross."""
        threads, rounds = 8, 15
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServeClient(server.base_url) as client:
                def worker(index):
                    try:
                        for _ in range(rounds):
                            response = client.sweep(tdps=[4.0 + index], pdns=["IVR"])
                            assert set(response.resultset.column("tdp_w")) == {4.0 + index}
                    except Exception as error:  # noqa: BLE001 - reported below
                        failures.append(error)

                before = CONNECTIONS.value
                pool = [threading.Thread(target=worker, args=(index,))
                        for index in range(threads)]
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=60.0)
                assert not any(thread.is_alive() for thread in pool)
                opened = CONNECTIONS.value - before
                idle = list(client._idle)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert 1 <= opened <= threads
        assert len(idle) == len(set(map(id, idle))) == opened

    def test_stale_pooled_connection_is_retried_once(self):
        with start_in_thread(read_timeout_s=0.2) as handle:
            with ServeClient(handle.base_url) as client:
                before = CONNECTIONS.value
                assert client.healthz()["status"] == "ok"
                time.sleep(0.5)  # the server closes the idle connection
                assert client.sweep(**SWEEP).status == "ok"
                assert CONNECTIONS.value - before == 2

    def test_refused_fresh_connection_is_unavailable_without_retry(self, monkeypatch):
        opened = []

        class Counting(http.client.HTTPConnection):
            def __init__(self, *args, **kwargs):
                opened.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(http.client, "HTTPConnection", Counting)
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        with ServeClient(f"http://127.0.0.1:{port}") as client:
            with pytest.raises(ServerUnavailable, match="unreachable"):
                client.healthz()
        assert len(opened) == 1

    def test_closing_response_is_not_pooled(self, server):
        with ServeClient(server.base_url) as client:
            with pytest.raises(ServerError):
                client.sweep(tdps=[4.0], pdns=["NotAPdn"])  # 400: closes
            assert client._idle == []
            assert client.healthz()["status"] == "ok"
            assert len(client._idle) == 1
        assert client._idle == []
