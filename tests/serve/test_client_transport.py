"""``ServeClient``'s transport against scripted stdlib socket servers.

Each test runs a one-thread loopback server whose answer is scripted, so
the client's error mapping is pinned without a daemon: what the CLI's
``--server`` fallback keys on (:class:`ServerUnavailable`) versus what it
must surface (:class:`ServerError`).
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.analysis.resultset import ResultSet
from repro.serve import client as client_module
from repro.serve.client import ServeClient, ServerError, ServerUnavailable
from repro.util.errors import ConfigurationError


def _response(status: int, body: bytes, reason: str = "Whatever") -> bytes:
    return (
        f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("ascii") + body


class ScriptedServer:
    """Answer every connection with ``reply`` (``None``: never answer).

    Records each request's head lines and body in :attr:`requests`.
    """

    def __init__(self, reply):
        self.reply = reply
        self.requests = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def _serve(self) -> None:
        while True:
            connection, _ = self._listener.accept()
            if self._release.is_set():
                connection.close()
                return
            with connection:
                stream = connection.makefile("rb")
                head = []
                while True:
                    line = stream.readline()
                    if line in (b"\r\n", b""):
                        break
                    head.append(line.decode("latin-1").rstrip("\r\n"))
                headers = dict(
                    (name.lower(), value)
                    for name, _, value in (h.partition(": ") for h in head[1:])
                )
                body = stream.read(int(headers.get("content-length", "0")))
                self.requests.append((head, headers, body))
                if self.reply is None:
                    self._release.wait(timeout=30.0)
                else:
                    connection.sendall(self.reply)

    def close(self) -> None:
        self._release.set()
        # Wake the blocked accept(); the loop sees the release and returns.
        socket.create_connection(("127.0.0.1", self.port), timeout=10.0).close()
        self._thread.join(timeout=10.0)
        self._listener.close()


@pytest.fixture
def scripted():
    servers = []

    def start(reply):
        server = ScriptedServer(reply)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.close()


def test_connection_refused_is_unavailable():
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    # Nothing listens on the port any more.
    with pytest.raises(ServerUnavailable, match="unreachable"):
        ServeClient(f"http://127.0.0.1:{port}").healthz()


@pytest.mark.parametrize("status", [400, 413, 503])
def test_error_document_is_server_error(scripted, status):
    document = {"status": "error", "code": status, "error": "no such thing",
                "pointer": "body/tdps"}
    server = scripted(_response(status, json.dumps(document).encode()))
    with pytest.raises(ServerError) as excinfo:
        ServeClient(server.base_url).sweep(tdps=[4.0])
    error = excinfo.value
    assert error.code == status
    assert str(error) == f"server answered {status}: no such thing"
    assert error.payload == document
    assert error.pointer == "body/tdps"


@pytest.mark.parametrize("body", [b"<html>boom</html>", b"[1, 2]"],
                         ids=["not-json", "not-an-object"])
def test_error_body_without_an_error_document_keeps_its_text(scripted, body):
    server = scripted(_response(500, body))
    with pytest.raises(ServerError) as excinfo:
        ServeClient(server.base_url).healthz()
    assert excinfo.value.code == 500
    assert body.decode() in str(excinfo.value)
    assert excinfo.value.payload == {}


def test_malformed_http_response_is_502(scripted):
    server = scripted(b"this is not HTTP\r\n\r\n")
    with pytest.raises(ServerError) as excinfo:
        ServeClient(server.base_url).healthz()
    assert excinfo.value.code == 502
    assert "malformed HTTP response" in str(excinfo.value)


def test_non_json_ok_body_is_502(scripted):
    server = scripted(_response(200, b"definitely not json"))
    with pytest.raises(ServerError) as excinfo:
        ServeClient(server.base_url).healthz()
    assert excinfo.value.code == 502
    assert "non-JSON" in str(excinfo.value)


def test_stalled_server_times_out_as_unavailable(scripted, monkeypatch):
    monkeypatch.setattr(client_module, "_TRANSPORT_MARGIN_S", 0.0)
    server = scripted(None)
    with pytest.raises(ServerUnavailable, match="unreachable"):
        ServeClient(server.base_url, timeout_s=0.2).healthz()


def test_request_carries_json_body_and_content_type(scripted):
    table = ResultSet.from_records([{"pdn": "IVR", "tdp_w": 4.0, "etee": 0.75}])
    document = {"status": "ok", "endpoint": "sweep",
                "resultset": json.loads(table.to_json())}
    server = scripted(_response(200, json.dumps(document, indent=2).encode()))
    response = ServeClient(server.base_url + "/").sweep(tdps=[4.0], pdns=["IVR"])
    assert response.status == "ok"
    assert response.resultset == table
    (head, headers, body) = server.requests[0]
    assert head[0] == "POST /v1/sweep HTTP/1.1"
    assert headers["content-type"] == "application/json"
    assert headers["accept"] == "application/json"
    assert json.loads(body) == {"tdps": [4.0], "pdns": ["IVR"]}


def test_get_sends_no_body(scripted):
    server = scripted(_response(200, b'{"status": "ok"}'))
    assert ServeClient(server.base_url).healthz() == {"status": "ok"}
    (head, headers, body) = server.requests[0]
    assert head[0] == "GET /v1/healthz HTTP/1.1"
    assert "content-type" not in headers
    assert body == b""


@pytest.mark.parametrize(
    "url", ["127.0.0.1:8737", "https://127.0.0.1:8737", "http://", "http://h:port"]
)
def test_invalid_base_url_is_a_configuration_error(url):
    with pytest.raises(ConfigurationError, match="invalid server URL"):
        ServeClient(url)
