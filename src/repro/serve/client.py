"""A thin stdlib client of the evaluation service.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` JSON dialect
over direct persistent ``http.client`` connections (no proxy, thread safe)
and rebuilds real :class:`~repro.analysis.resultset.ResultSet`
objects from responses, so everything downstream of an engine call -- the
CLI renderers, the plotting adapters, user code -- works identically on
server results.  The round trip is bit-identical: the server embeds
``ResultSet.to_json`` and the client parses each response once and
rebuilds the result set from the decoded document through
``ResultSet.from_payload``, whose equality round-trip is covered by the
cache serialization tests.

Connections are pooled: an exchange takes an idle connection (or opens
one) and returns it after a complete response that did not say
``Connection: close``, so a thread making many requests pays for one TCP
connection, and concurrent threads each get their own.  The server may
close an idle connection at any time (idle timeout, shutdown); when a
*reused* connection fails before any response byte arrives, the exchange
is retried once on a fresh connection -- evaluation requests are pure, so
a retry is safe.  :meth:`ServeClient.close` (or a ``with`` block) closes
the idle connections; a client that is garbage-collected closes them too.

Failure taxonomy (what the CLI's ``--server`` fallback keys on):

* :class:`ServerUnavailable` -- the daemon cannot be reached at all
  (connection refused, DNS failure, socket timeout).  The CLI falls back
  to local engines on this and only this.
* :class:`ServerError` -- the daemon answered with an error document
  (schema violation, budget, deadline, draining).  These are *request*
  problems; falling back would silently re-run work the server refused,
  so they propagate.
"""

from __future__ import annotations

import http.client
import json
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence
from urllib.parse import urlsplit

from repro.analysis.resultset import ResultSet
from repro.util.errors import ConfigurationError, ReproError

#: Extra seconds of HTTP read timeout on top of a request's evaluation
#: deadline, so the transport never gives up before the server answers.
_TRANSPORT_MARGIN_S = 30.0


class ServerUnavailable(ReproError):
    """The evaluation service cannot be reached (connect/transport failure)."""


class ServerError(ReproError):
    """The evaluation service answered with an error document.

    Attributes
    ----------
    code:
        The HTTP status code (400 schema, 408 read timeout, 413 budget,
        503 draining, 504 evaluation deadline, ...).
    pointer:
        The schema pointer of a 400, when the server named one.
    payload:
        The full decoded error document.
    """

    def __init__(self, code: int, message: str, payload: Optional[Dict] = None):
        super().__init__(f"server answered {code}: {message}")
        self.code = code
        self.payload = payload or {}
        self.pointer = self.payload.get("pointer")


@dataclass(frozen=True)
class EvaluationResponse:
    """One decoded evaluation response (``ok`` or ``partial``).

    Attributes
    ----------
    status:
        ``"ok"`` for a complete evaluation, ``"partial"`` when the request
        allowed partial results and the deadline cut the grid short.
    endpoint:
        Which endpoint answered (``sweep``/``simulate``/``optimize``).
    resultset:
        The rebuilt result set -- bit-identical to what the local engine
        would have returned (for ``partial``: the completed rows, in
        canonical order).
    strategy:
        The search strategy that ran (optimize responses only).
    completed_units / total_units:
        Grid coverage of a ``partial`` response (``None`` on ``ok``).
    """

    status: str
    endpoint: str
    resultset: ResultSet
    strategy: Optional[str] = None
    completed_units: Optional[int] = None
    total_units: Optional[int] = None

    @property
    def partial(self) -> bool:
        """Whether the deadline cut this evaluation short."""
        return self.status == "partial"


class ServeClient:
    """A client of one running evaluation daemon.

    Parameters
    ----------
    base_url:
        The daemon's ``http://`` base URL, e.g. ``http://127.0.0.1:8737``
        (a trailing slash is tolerated).  The client connects to it
        directly; proxy environment variables are not consulted.
    timeout_s:
        Default evaluation deadline sent with requests that do not carry
        their own ``timeout_s``; also sizes the HTTP read timeout (with a
        transport margin) so the socket outlives the evaluation.

    Use it as a context manager, or call :meth:`close`, to close its idle
    connections when done.
    """

    def __init__(self, base_url: str, timeout_s: Optional[float] = None):
        self._base_url = base_url.rstrip("/")
        self._timeout_s = timeout_s
        parts = urlsplit(self._base_url)
        try:
            port = parts.port
        except ValueError as error:
            raise ConfigurationError(f"invalid server URL {base_url!r}: {error}") from None
        if parts.scheme != "http" or not parts.hostname:
            raise ConfigurationError(
                f"invalid server URL {base_url!r}: expected http://HOST[:PORT]"
            )
        self._host = parts.hostname
        self._port = port if port is not None else 80
        self._path_prefix = parts.path
        #: Idle persistent connections, most recently used last.
        self._idle: List[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        weakref.finalize(self, _close_idle, self._idle, self._idle_lock)

    def close(self) -> None:
        """Close the idle connections (a later exchange opens a new one)."""
        _close_idle(self._idle, self._idle_lock)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def base_url(self) -> str:
        """The daemon's base URL."""
        return self._base_url

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _http_timeout(self, body: Optional[Mapping[str, object]]) -> float:
        """The socket timeout of one exchange (evaluation deadline + margin)."""
        requested = None
        if body is not None:
            requested = body.get("timeout_s")
        if requested is None:
            requested = self._timeout_s
        if requested is None:
            requested = 600.0
        return float(requested) + _TRANSPORT_MARGIN_S

    def _connection(self, timeout: float) -> Optional[http.client.HTTPConnection]:
        """An idle pooled connection set to ``timeout``, or ``None``."""
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is not None:
            connection.timeout = timeout
            connection.sock.settimeout(timeout)
        return connection

    def _exchange(
        self, method: str, path: str, body: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        """Run one HTTP exchange and decode the JSON document it returns."""
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        timeout = self._http_timeout(body)
        target = self._path_prefix + path
        connection = self._connection(timeout)
        try:
            if connection is not None:
                try:
                    connection.request(method, target, data, headers)
                    response = connection.getresponse()
                except ConnectionError:
                    # The server closed the idle connection first; no byte
                    # of a response arrived, so one retry is safe.
                    connection.close()
                    connection = None
            if connection is None:
                connection = http.client.HTTPConnection(
                    self._host, self._port, timeout=timeout
                )
                connection.request(method, target, data, headers)
                response = connection.getresponse()
            raw = response.read()
        except OSError as error:  # refused, reset, timed out, unresolvable
            connection.close()
            raise ServerUnavailable(
                f"evaluation service at {self._base_url} is unreachable: {error}"
            ) from None
        except http.client.HTTPException as error:
            connection.close()
            raise ServerError(502, f"malformed HTTP response ({error!r})") from None
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            if response.status < 400:
                raise ServerError(502, f"non-JSON response body ({error})") from None
            payload = {}
        if response.status >= 400:
            if not isinstance(payload, dict):
                payload = {}
            message = str(payload.get("error", raw[:200].decode("latin-1")))
            raise ServerError(response.status, message, payload)
        return payload

    def _evaluate(self, endpoint: str, body: Dict[str, object]) -> EvaluationResponse:
        """POST one evaluation request and rebuild its result set."""
        if body.get("timeout_s") is None and self._timeout_s is not None:
            body["timeout_s"] = self._timeout_s
        clean = {name: value for name, value in body.items() if value is not None}
        # allow_partial=False is the protocol default; don't send the noise.
        if clean.get("allow_partial") is False:
            del clean["allow_partial"]
        payload = self._exchange("POST", f"/v1/{endpoint}", clean)
        resultset = ResultSet.from_payload(payload["resultset"])
        return EvaluationResponse(
            status=str(payload.get("status", "ok")),
            endpoint=str(payload.get("endpoint", endpoint)),
            resultset=resultset,
            strategy=payload.get("strategy"),
            completed_units=payload.get("completed_units"),
            total_units=payload.get("total_units"),
        )

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def healthz(self) -> Dict[str, object]:
        """``GET /v1/healthz``: the liveness document."""
        return self._exchange("GET", "/v1/healthz")

    def stats(self) -> Dict[str, object]:
        """``GET /v1/stats``: the full observability document."""
        return self._exchange("GET", "/v1/stats")

    def metrics(self) -> Dict[str, object]:
        """``GET /v1/metrics``: the process-wide metrics snapshot."""
        return self._exchange("GET", "/v1/metrics")

    def sweep(
        self,
        tdps: Sequence[float],
        ars: Optional[Sequence[float]] = None,
        workloads: Optional[Sequence[object]] = None,
        power_states: Optional[Sequence[object]] = None,
        pdns: Optional[Sequence[str]] = None,
        timeout_s: Optional[float] = None,
        allow_partial: bool = False,
    ) -> EvaluationResponse:
        """``POST /v1/sweep``: evaluate one analytic study grid remotely.

        ``workloads`` and ``power_states`` accept either protocol strings or
        the library's enum members (their ``value`` is sent).
        """
        body: Dict[str, object] = {
            "tdps": list(tdps),
            "ars": list(ars) if ars else None,
            "workloads": _enum_values(workloads),
            "power_states": _enum_values(power_states),
            "pdns": list(pdns) if pdns else None,
            "timeout_s": timeout_s,
            "allow_partial": allow_partial,
        }
        return self._evaluate("sweep", body)

    def simulate(
        self,
        scenarios: Optional[Sequence[str]] = None,
        tdps: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
        pdns: Optional[Sequence[str]] = None,
        timeout_s: Optional[float] = None,
        allow_partial: bool = False,
    ) -> EvaluationResponse:
        """``POST /v1/simulate``: evaluate one scenario-simulation grid remotely."""
        body: Dict[str, object] = {
            "scenarios": list(scenarios) if scenarios else None,
            "tdps": list(tdps) if tdps else None,
            "seed": seed,
            "pdns": list(pdns) if pdns else None,
            "timeout_s": timeout_s,
            "allow_partial": allow_partial,
        }
        return self._evaluate("simulate", body)

    def optimize(
        self,
        objectives: Optional[Sequence[str]] = None,
        strategy: Optional[str] = None,
        budget: Optional[int] = None,
        seed: Optional[int] = None,
        pdns: Optional[Sequence[str]] = None,
        params: Optional[Mapping[str, Sequence[float]]] = None,
        tdps: Optional[Sequence[float]] = None,
        scenarios: Optional[Sequence[str]] = None,
        timeout_s: Optional[float] = None,
    ) -> EvaluationResponse:
        """``POST /v1/optimize``: run one design-space search remotely.

        The returned result set carries the ``pareto``/``knee`` marker
        columns, so the front and the knee row are reconstructed exactly as
        the local runner computed them (``filter(pareto=True)`` and the
        ``knee`` column).
        """
        body: Dict[str, object] = {
            "objectives": list(objectives) if objectives else None,
            "strategy": strategy,
            "budget": budget,
            "seed": seed,
            "pdns": list(pdns) if pdns else None,
            "params": (
                {name: list(values) for name, values in params.items()}
                if params
                else None
            ),
            "tdps": list(tdps) if tdps else None,
            "scenarios": list(scenarios) if scenarios else None,
            "timeout_s": timeout_s,
        }
        return self._evaluate("optimize", body)


def _close_idle(
    idle: List[http.client.HTTPConnection], lock: threading.Lock
) -> None:
    """Close and forget every connection in ``idle``."""
    with lock:
        connections, idle[:] = list(idle), []
    for connection in connections:
        connection.close()


def _enum_values(items: Optional[Sequence[object]]) -> Optional[list]:
    """Map enum members (or strings) to their wire values."""
    if not items:
        return None
    return [getattr(item, "value", item) for item in items]
