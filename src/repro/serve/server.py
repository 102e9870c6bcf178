"""The long-running evaluation daemon (stdlib asyncio + HTTP/1.1 + JSON).

:class:`EvaluationServer` owns one warm set of evaluation engines -- an
analytic :class:`~repro.analysis.pdnspot.PdnSpot`, a trace-driven
:class:`~repro.sim.study.SimEngine`, and lazily built
:class:`~repro.optimize.objectives.CandidateEvaluator` instances, whose
simulation engines share one optional on-disk cache directory -- and
exposes the library's grid workloads over five endpoints:

========================  ===================================================
``POST /v1/sweep``        An analytic study grid (the ``repro sweep`` axes).
``POST /v1/simulate``     A scenario-simulation grid (``repro simulate``).
``POST /v1/optimize``     A design-space search (``repro optimize``).
``GET /v1/stats``         Cache hit rates, coalescing counters, per-endpoint
                          latency histograms (:mod:`repro.serve.stats`).
``GET /v1/metrics``       The process-wide :mod:`repro.obs.metrics` snapshot
                          plus the tracing state.
``GET /v1/healthz``       Liveness plus the draining flag.
========================  ===================================================

Sweep and simulate requests are decomposed into engine cache keys and
routed through a per-engine :class:`~repro.serve.coalescer.Coalescer`:
keys in the engine's memory cache settle at once, on the event loop,
overlapping concurrent requests cost one evaluation per distinct key and
the other fresh keys batch into one dispatch per scheduling tick.  Optimize
requests single-flight on their canonical request digest (identical
concurrent searches run once) and serialise per shared evaluator.

Responses are bit-identical to local engine runs: the ``resultset`` field
of an ``ok`` response is exactly ``ResultSet.to_json`` of what
``PdnSpot.run`` / ``run_sim`` / ``run_optimization`` would have returned
for the same request.

Operational semantics:

* **Budgets** -- a request that decomposes into more evaluation units (or
  search candidates) than ``max_units`` is rejected with ``413`` before any
  work is dispatched.
* **Timeouts** -- each request gets ``min(timeout_s, max_timeout_s)``
  seconds of evaluation time; on deadline the server answers ``504``, or --
  when the request set ``allow_partial`` -- ``200`` with
  ``status: "partial"`` and the completed rows in canonical order.  A
  client that stalls while sending its body gets ``408``.
* **Persistent connections** -- a connection carries one exchange after
  another (HTTP/1.1, ``Content-Length`` framing).  A response says
  ``Connection: close`` and the server closes the connection when the
  request was HTTP/1.0 or sent ``Connection: close`` or a chunked body
  (only ``Content-Length`` bodies are read), when the status is
  ``400`` or above (so an unread body or a broken head is never parsed as
  the next request), or when the server is draining; every other response
  says ``Connection: keep-alive``.  A connection that sends no byte of its
  next request within ``read_timeout_s`` is closed without a response.
* **Graceful shutdown** -- :meth:`EvaluationServer.shutdown` flips the
  draining flag (new evaluation requests get ``503``; health, stats and
  metrics keep answering), waits for in-flight requests and dispatched
  batches to finish, closes the listener and every idle connection, then
  waits for the connections still answering.

When a tracer is installed (``repro serve --trace``), every request is
wrapped in a ``serve.request`` span with ``serve.parse`` /
``serve.dispatch`` / ``serve.reassemble`` children, so a service trace
shows the full request lifecycle down to the ``executor.chunk`` spans.
Each response is then encoded and written in a ``serve.respond`` span
(``status``, ``bytes``).
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.resultset import ResultSet
from repro.analysis.study import study_resultset, study_units
from repro.cache import cache_stats_payload, canonical_key
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS, METRICS_SCHEMA_VERSION
from repro.optimize import run_optimization
from repro.optimize.objectives import (
    CandidateEvaluator,
    EvaluationSettings,
    resolve_objectives,
)
from repro.serve.coalescer import Coalescer
from repro.serve.protocol import (
    OptimizeRequest,
    ProtocolError,
    SimulateRequest,
    SweepRequest,
    parse_optimize_request,
    parse_simulate_request,
    parse_sweep_request,
)
from repro.serve.stats import EndpointStats, memory_cache_section
from repro.sim.adapters import simulation_record
from repro.sim.study import SimEngine
from repro.util.errors import ReproError

#: Accepted connections (one per TCP connection, however many exchanges).
_CONNECTIONS = METRICS.counter("serve.connections")

#: Default TCP port of the daemon (``0`` binds an ephemeral port).
DEFAULT_PORT = 8737

#: Reason phrases of the status codes the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _json_body(payload: Dict[str, object]) -> bytes:
    """Encode one response payload as UTF-8 JSON (``json.dumps(indent=2)``).

    An evaluation payload carries its live :class:`ResultSet` as its last
    member, ``resultset``.  The envelope before it goes through
    ``json.dumps``; the result set's own ``to_json(indent=2)`` text is
    spliced in one level deep, which is byte for byte what ``json.dumps``
    writes for the decoded result set -- without decoding it first.
    """
    resultset = payload.get("resultset")
    if not isinstance(resultset, ResultSet):
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    envelope = {key: value for key, value in payload.items() if key != "resultset"}
    head = json.dumps(envelope, indent=2)[: -len("\n}")]
    spliced = resultset.to_json(indent=2).replace("\n", "\n  ")
    return (head + ',\n  "resultset": ' + spliced + "\n}\n").encode("utf-8")


def _error_payload(code: int, message: str, **extra: object) -> Dict[str, object]:
    """The uniform error envelope every non-200 response carries."""
    payload: Dict[str, object] = {"status": "error", "code": code, "error": message}
    payload.update(extra)
    return payload


async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Read header lines up to the blank one (CRLF- or bare-LF-terminated)."""
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


class _HttpError(Exception):
    """An HTTP-level failure mapped straight to an error response."""

    def __init__(self, code: int, message: str, **extra: object):
        super().__init__(message)
        self.code = code
        self.payload = _error_payload(code, message, **extra)


class EvaluationServer:
    """The warm evaluation daemon behind ``repro serve``.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    cache_dir:
        Optional persistent cache directory (see :mod:`repro.cache`)
        attached to every owned simulation engine, so the daemon starts
        with the simulations of prior runs and its simulations persist
        across restarts.
    timeout_s:
        Default per-request evaluation deadline (seconds).
    max_timeout_s:
        Hard cap on client-supplied ``timeout_s`` values.
    max_units:
        Per-request budget: the most evaluation units (or search
        candidates) one request may decompose into; larger requests are
        rejected with ``413``.
    batch_window_s:
        Coalescer batching window (``0``: flush every event-loop tick).
    read_timeout_s:
        How long a client may take to deliver its request head and body
        before the server answers ``408``; also how long a connection may
        stay idle between requests before the server closes it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_dir: Optional[str] = None,
        timeout_s: float = 60.0,
        max_timeout_s: float = 600.0,
        max_units: int = 50_000,
        batch_window_s: float = 0.0,
        read_timeout_s: float = 30.0,
        max_body_bytes: int = 8 * 1024 * 1024,
    ):
        self._host = host
        self._requested_port = port
        self._cache_dir = str(cache_dir) if cache_dir is not None else None
        self._timeout_s = timeout_s
        self._max_timeout_s = max_timeout_s
        self._max_units = max_units
        self._read_timeout_s = read_timeout_s
        self._max_body_bytes = max_body_bytes

        self._spot = PdnSpot()
        self._sim_engine = SimEngine(disk_cache=self._cache_dir)
        self._sweep_coalescer = Coalescer(self._spot, batch_window_s=batch_window_s)
        self._sim_coalescer = Coalescer(
            self._sim_engine, batch_window_s=batch_window_s
        )
        #: Shared optimize evaluators keyed by (objectives, settings) digest.
        self._evaluators: Dict[str, CandidateEvaluator] = {}
        self._evaluator_locks: Dict[str, asyncio.Lock] = {}
        #: Single-flight index of in-flight optimize searches.
        self._optimize_inflight: Dict[str, "asyncio.Future[object]"] = {}
        self._optimize_coalesced = 0
        self._optimize_dispatched = 0

        self._endpoint_stats: Dict[str, EndpointStats] = {}
        self._started_monotonic: Optional[float] = None
        self._draining = False
        self._in_flight_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._connections: "set[asyncio.Task[None]]" = set()
        #: Connections waiting for the first byte of their next request.
        self._idle_connections: "set[asyncio.StreamWriter]" = set()
        self._shutdown_requested = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._port: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound TCP port (only meaningful after :meth:`start`)."""
        if self._port is None:
            raise RuntimeError("server has not been started")
        return self._port

    @property
    def base_url(self) -> str:
        """The server's base URL (only meaningful after :meth:`start`)."""
        return f"http://{self._host}:{self.port}"

    @property
    def draining(self) -> bool:
        """Whether the server is refusing new evaluation requests."""
        return self._draining

    async def start(self) -> None:
        """Bind the listener and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._requested_port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def shutdown(self) -> None:
        """Drain in-flight work, then stop the server.

        New evaluation requests are refused with ``503`` the moment this is
        called; requests already being evaluated (and every dispatched
        coalescer batch) run to completion.  Then the listener and every
        idle connection close at once, and shutdown waits for the
        connections still writing a response.
        """
        self._draining = True
        await self._idle.wait()
        await self._sweep_coalescer.drain()
        await self._sim_coalescer.drain()
        if self._server is not None:
            self._server.close()
        for writer in list(self._idle_connections):
            writer.close()
        current = asyncio.current_task()
        pending = [task for task in self._connections if task is not current]
        if pending:
            # A stuck connection should not wedge shutdown forever.
            await asyncio.wait(pending, timeout=self._read_timeout_s)
        if self._server is not None:
            await self._server.wait_closed()

    def request_shutdown(self) -> None:
        """Ask the server loop to shut down (safe from any thread)."""
        if self._loop is None:
            self._shutdown_requested.set()
            return
        self._loop.call_soon_threadsafe(self._shutdown_requested.set)

    def run(self) -> int:
        """Blocking entry point of the ``repro serve`` CLI sub-command."""
        try:
            asyncio.run(self._serve_until_shutdown(announce=True))
        except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
            pass
        return 0

    async def _serve_until_shutdown(self, announce: bool = False) -> None:
        """Start, serve until a shutdown is requested, then drain and stop."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._shutdown_requested.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or platform without signal support
        if announce:
            print(f"repro serve listening on {self.base_url}", flush=True)
        await self._shutdown_requested.wait()
        if announce:
            print("repro serve draining in-flight requests", flush=True)
        await self.shutdown()
        if announce:
            print("repro serve shutdown complete", flush=True)

    # ------------------------------------------------------------------ #
    # HTTP transport
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve HTTP/1.1 exchanges on one connection until it closes."""
        _CONNECTIONS.inc()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            keep_alive = True
            while keep_alive:
                try:
                    request = await self._read_request(reader, writer)
                    if request is None:
                        break
                    method, path, body, keep_alive = request
                    status, payload = await self._route(method, path, body)
                except _HttpError as error:
                    status, payload = error.code, error.payload
                except Exception as error:  # noqa: BLE001 - crash-proof transport
                    status = 500
                    payload = _error_payload(500, f"internal server error: {error}")
                keep_alive = keep_alive and status < 400 and not self._draining
                await self._write_response(writer, status, payload, keep_alive)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing left to answer
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - client reset
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """Read one request: ``(method, path, body, keep_alive)``.

        ``None`` when no byte of a request arrived: the client closed the
        connection, or it stayed idle past ``read_timeout_s``, or the
        server is shutting down.  Those close without a response.
        """
        if self._server is not None and not self._server.is_serving():
            return None
        # The idle timer and shutdown close an idle connection; its read
        # then ends at EOF.
        idle_timer = asyncio.get_running_loop().call_later(
            self._read_timeout_s, writer.close
        )
        self._idle_connections.add(writer)
        try:
            first = await reader.read(1)
        finally:
            idle_timer.cancel()
            self._idle_connections.discard(writer)
        if not first or writer.is_closing():
            return None
        try:
            request_line = first + await asyncio.wait_for(
                reader.readline(), self._read_timeout_s
            )
        except asyncio.TimeoutError:
            raise _HttpError(408, "timed out waiting for the request line") from None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed HTTP request line")
        method, target, version = parts[0].upper(), parts[1], parts[2]
        try:
            headers = await asyncio.wait_for(
                _read_headers(reader), self._read_timeout_s
            )
        except asyncio.TimeoutError:
            raise _HttpError(408, "timed out reading request headers") from None
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "invalid Content-Length header") from None
        if length > self._max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self._max_body_bytes}-byte limit",
            )
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self._read_timeout_s
                )
            except asyncio.TimeoutError:
                raise _HttpError(408, "timed out reading the request body") from None
            except asyncio.IncompleteReadError:
                raise _HttpError(
                    400, "request body shorter than Content-Length"
                ) from None
        # Only a Content-Length body is read, so a chunked one ends the
        # connection rather than being parsed as the next request.
        connection = headers.get("connection", "").lower().split(",")
        keep_alive = (
            version == "HTTP/1.1"
            and "close" not in (token.strip() for token in connection)
            and "transfer-encoding" not in headers
        )
        path = target.split("?", 1)[0]
        return method, path, body, keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: object,
        keep_alive: bool,
    ) -> None:
        """Encode one JSON response, write it and flush it."""
        with obs_trace.span("serve.respond", category="serve",
                            status=status) as span:
            body = _json_body(payload)
            span.set("bytes", len(body))
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            )
            writer.write(head.encode("ascii") + body)
            await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, object]:
        """Dispatch one parsed request to its endpoint handler."""
        if path == "/v1/healthz":
            if method != "GET":
                raise _HttpError(405, f"{path} only supports GET")
            return 200, self._healthz_payload()
        if path == "/v1/stats":
            if method != "GET":
                raise _HttpError(405, f"{path} only supports GET")
            return await self._observed(path, "stats", self._handle_stats, body)
        if path == "/v1/metrics":
            if method != "GET":
                raise _HttpError(405, f"{path} only supports GET")
            return await self._observed(path, "metrics", self._handle_metrics, body)
        handlers = {
            "/v1/sweep": ("sweep", self._handle_sweep),
            "/v1/simulate": ("simulate", self._handle_simulate),
            "/v1/optimize": ("optimize", self._handle_optimize),
        }
        if path not in handlers:
            raise _HttpError(
                404,
                f"unknown path {path!r}; endpoints: /v1/sweep /v1/simulate "
                "/v1/optimize /v1/stats /v1/metrics /v1/healthz",
            )
        endpoint, handler = handlers[path]
        if method != "POST":
            raise _HttpError(405, f"{path} only supports POST")
        if self._draining:
            raise _HttpError(
                503, "server is draining and not accepting new evaluation requests"
            )
        return await self._observed(path, endpoint, handler, body)

    async def _observed(
        self, path: str, endpoint: str, handler, body: bytes
    ) -> Tuple[int, object]:
        """Run a handler with latency/error accounting and in-flight tracking."""
        stats = self._endpoint_stats.setdefault(endpoint, EndpointStats())
        self._in_flight_requests += 1
        self._idle.clear()
        started = time.monotonic()
        status = 500
        with obs_trace.span("serve.request", category="serve",
                            endpoint=endpoint) as span:
            try:
                status, payload = await handler(body)
                return status, payload
            except _HttpError as error:
                status = error.code
                raise
            finally:
                self._in_flight_requests -= 1
                if self._in_flight_requests == 0:
                    self._idle.set()
                stats.observe(time.monotonic() - started, error=status >= 400)
                span.set("status", status)

    def _decode_body(self, body: bytes) -> object:
        """Decode a POST body into JSON, mapping failures to 400 errors."""
        if not body:
            raise _HttpError(
                400, "body: expected a JSON object request body", pointer="body"
            )
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _HttpError(
                400, f"body: request body is not valid JSON ({error})", pointer="body"
            ) from None

    def _parse(self, parser, body: bytes):
        """Parse and validate one request body, mapping failures to 400."""
        with obs_trace.span("serve.parse", category="serve",
                            bytes=len(body)):
            decoded = self._decode_body(body)
            try:
                return parser(decoded)
            except ProtocolError as error:
                raise _HttpError(400, str(error), pointer=error.pointer) from None

    def _effective_timeout(self, requested: Optional[float]) -> float:
        """The evaluation deadline of one request, capped by the server."""
        timeout = requested if requested is not None else self._timeout_s
        return min(timeout, self._max_timeout_s)

    def _check_budget(self, units: int) -> None:
        """Reject a request whose decomposition exceeds the unit budget."""
        if units > self._max_units:
            raise _HttpError(
                413,
                f"request decomposes into {units} evaluation units, over the "
                f"per-request budget of {self._max_units}",
                units=units,
                budget=self._max_units,
            )

    # ------------------------------------------------------------------ #
    # Evaluation endpoints
    # ------------------------------------------------------------------ #
    async def _handle_sweep(self, body: bytes) -> Tuple[int, object]:
        """``POST /v1/sweep``: evaluate one analytic study grid."""
        request: SweepRequest = self._parse(parse_sweep_request, body)
        try:
            study = request.study()
            names = (
                study.pdn_names
                if study.pdn_names is not None
                else tuple(self._spot.pdns)
            )
            for name in names:
                self._spot.pdn(name)  # fail fast on unknown PDNs
            units = study_units(study, names)
        except ReproError as error:
            raise _HttpError(400, str(error)) from None
        self._check_budget(len(units))

        def assemble(results: List[Optional[object]]) -> ResultSet:
            return study_resultset(study, names, results)

        return await self._coalesced_response(
            "sweep", self._sweep_coalescer, units, assemble, request
        )

    async def _handle_simulate(self, body: bytes) -> Tuple[int, object]:
        """``POST /v1/simulate``: evaluate one scenario-simulation grid."""
        request: SimulateRequest = self._parse(parse_simulate_request, body)
        try:
            study = request.study()
            names = (
                study.pdn_names
                if study.pdn_names is not None
                else tuple(self._sim_engine.spot.pdns)
            )
            for name in names:
                self._sim_engine.spot.pdn(name)  # fail fast on unknown PDNs
            units = [
                (name, point, point.overrides)
                for point in study.points
                for name in names
            ]
        except ReproError as error:
            raise _HttpError(400, str(error)) from None
        self._check_budget(len(units))

        def assemble(results: List[Optional[object]]) -> ResultSet:
            """Rebuild rows exactly as :meth:`SimEngine.run` would."""
            records = []
            cursor = 0
            for point in study.points:
                identity = point.record_fields()
                for _ in names:
                    if results[cursor] is not None:
                        records.append(simulation_record(results[cursor], identity))
                    cursor += 1
            return ResultSet.from_records(records, name=study.name)

        return await self._coalesced_response(
            "simulate", self._sim_coalescer, units, assemble, request
        )

    async def _coalesced_response(
        self,
        endpoint: str,
        coalescer: Coalescer,
        units: List[tuple],
        assemble,
        request,
    ) -> Tuple[int, object]:
        """Scatter units, await them under the deadline, assemble the response.

        The deadline branch implements the explicit-status contract: with
        ``allow_partial`` the completed subset comes back as ``200`` /
        ``status: "partial"`` (canonical row order, incomplete rows
        dropped); otherwise the request fails with ``504``.  Either way the
        dispatched work keeps running and lands in the shared cache for the
        next request.
        """
        timeout = self._effective_timeout(request.timeout_s)
        with obs_trace.span("serve.dispatch", category="serve",
                            endpoint=endpoint, units=len(units)):
            futures = coalescer.scatter(units)
        pending = ()
        if not all(future.done() for future in futures):
            # asyncio.wait never cancels the shared futures other requests
            # await, and returns early on the first failed dispatch.  A
            # request the memory tier answered at scatter never waits.
            _, pending = await asyncio.wait(
                set(futures), timeout=timeout, return_when=asyncio.FIRST_EXCEPTION
            )
        try:
            results = [
                future.result() if future.done() else None for future in futures
            ]
        except ReproError as error:
            raise _HttpError(400, str(error)) from None
        if pending:
            done_count = sum(1 for result in results if result is not None)
            if request.allow_partial and done_count:
                with obs_trace.span("serve.reassemble", category="serve",
                                    endpoint=endpoint, units=done_count,
                                    partial=True):
                    resultset = assemble(results)
                payload = {
                    "status": "partial",
                    "endpoint": endpoint,
                    "completed_units": done_count,
                    "total_units": len(units),
                    "timeout_s": timeout,
                    "resultset": resultset,
                }
                return 200, payload
            raise _HttpError(
                504,
                f"evaluation exceeded the {timeout:g} s deadline "
                f"({done_count}/{len(units)} units completed; retry, raise "
                "timeout_s, or set allow_partial)",
                timeout_s=timeout,
            )
        with obs_trace.span("serve.reassemble", category="serve",
                            endpoint=endpoint, units=len(units)):
            resultset = assemble(results)
        return 200, {"status": "ok", "endpoint": endpoint, "resultset": resultset}

    async def _handle_optimize(self, body: bytes) -> Tuple[int, object]:
        """``POST /v1/optimize``: run one design-space search (single-flight)."""
        request: OptimizeRequest = self._parse(parse_optimize_request, body)
        try:
            resolved = resolve_objectives(request.objectives)
            space = request.space()
            settings = self._optimize_settings(request)
            candidates = len(space.points())
            budget = request.budget
            effective = min(budget, candidates) if budget is not None else candidates
        except ReproError as error:
            raise _HttpError(400, str(error)) from None
        self._check_budget(effective * len(resolved))
        timeout = self._effective_timeout(request.timeout_s)
        digest = canonical_key(dataclasses.replace(request, timeout_s=None))
        future = self._optimize_inflight.get(digest)
        if future is not None:
            self._optimize_coalesced += 1
        else:
            loop = asyncio.get_running_loop()
            future = loop.create_task(
                self._run_optimize(digest, request, resolved, space, settings)
            )
            self._optimize_inflight[digest] = future
            future.add_done_callback(
                lambda _, digest=digest: self._optimize_inflight.pop(digest, None)
            )
        # asyncio.wait leaves the shared search running on a deadline.
        done, _ = await asyncio.wait({future}, timeout=timeout)
        if not done:
            raise _HttpError(
                504,
                f"optimization exceeded the {timeout:g} s deadline "
                "(the search keeps warming the cache; retry or raise timeout_s)",
                timeout_s=timeout,
            )
        try:
            outcome = future.result()
        except ReproError as error:
            raise _HttpError(400, str(error)) from None
        payload = {
            "status": "ok",
            "endpoint": "optimize",
            "strategy": outcome.strategy,
            "resultset": outcome.results,
        }
        return 200, payload

    def _optimize_settings(
        self, request: OptimizeRequest
    ) -> Optional[EvaluationSettings]:
        """The evaluation settings one optimize request selects, if any."""
        kwargs = {}
        if request.tdps:
            kwargs["tdps_w"] = tuple(request.tdps)
        if request.scenarios:
            kwargs["scenarios"] = tuple(request.scenarios)
        return EvaluationSettings(**kwargs) if kwargs else None

    async def _run_optimize(
        self, digest: str, request: OptimizeRequest, resolved, space, settings
    ) -> object:
        """Dispatch one search on the seam thread, one at a time per evaluator.

        Evaluators are shared by ``(objectives, settings)`` so repeated
        searches reuse warm caches; the per-evaluator lock serialises
        concurrent *distinct* requests on the same evaluator, whose lazily
        built auxiliary state is not re-entrant.
        """
        evaluator_key = canonical_key(
            ([objective.name for objective in resolved], settings)
        )
        evaluator = self._evaluators.get(evaluator_key)
        if evaluator is None:
            evaluator = CandidateEvaluator(
                resolved,
                settings=settings,
                spot=self._spot,
                cache_dir=self._cache_dir,
            )
            self._evaluators[evaluator_key] = evaluator
        lock = self._evaluator_locks.setdefault(evaluator_key, asyncio.Lock())
        self._optimize_dispatched += 1
        loop = asyncio.get_running_loop()
        async with lock:
            return await loop.run_in_executor(
                None,
                functools.partial(
                    run_optimization,
                    space,
                    objectives=[objective.name for objective in resolved],
                    strategy=request.strategy,
                    budget=request.budget,
                    seed=request.seed,
                    evaluator=evaluator,
                ),
            )

    # ------------------------------------------------------------------ #
    # Introspection endpoints
    # ------------------------------------------------------------------ #
    def _healthz_payload(self) -> Dict[str, object]:
        """The liveness document (kept answering while draining)."""
        from repro import __version__

        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "draining": self._draining,
        }

    async def _handle_stats(self, body: bytes) -> Tuple[int, object]:
        """``GET /v1/stats``: the full observability document."""
        return 200, self.stats_payload()

    async def _handle_metrics(self, body: bytes) -> Tuple[int, object]:
        """``GET /v1/metrics``: the process-wide metrics snapshot."""
        return 200, self.metrics_payload()

    def metrics_payload(self) -> Dict[str, object]:
        """Assemble the ``/v1/metrics`` document.

        ``metrics`` is exactly :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
        of the process-wide registry; ``tracing`` reports whether a tracer
        is installed and how many span records it currently holds.  Like
        ``/v1/stats``, this keeps answering while the server drains.
        """
        tracer = obs_trace.active_tracer()
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": METRICS.snapshot(),
            "tracing": {
                "enabled": tracer is not None,
                "spans": len(tracer) if tracer is not None else 0,
            },
        }

    def stats_payload(self) -> Dict[str, object]:
        """Assemble the ``/v1/stats`` document (see :mod:`repro.serve.stats`)."""
        from repro import __version__

        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "server": {
                "version": __version__,
                "uptime_s": uptime,
                "draining": self._draining,
                "in_flight_requests": self._in_flight_requests,
            },
            "endpoints": {
                name: stats.as_dict()
                for name, stats in sorted(self._endpoint_stats.items())
            },
            "coalescer": {
                "sweep": self._sweep_coalescer.stats.as_dict(),
                "simulate": self._sim_coalescer.stats.as_dict(),
                "optimize": {
                    "requests_coalesced": self._optimize_coalesced,
                    "searches_dispatched": self._optimize_dispatched,
                },
            },
            "cache": {
                "memory": memory_cache_section(
                    {
                        "pdnspot": self._spot,
                        "sim": self._sim_engine,
                        "sim_phases": self._sim_engine.spot,
                    }
                ),
                # The same document `repro cache stats --json` prints.
                "disk": (
                    None if self._cache_dir is None
                    else cache_stats_payload(self._cache_dir)
                ),
            },
        }


class RunningServer:
    """A server running on a background thread (tests, benchmarks, scripts).

    Use as a context manager::

        with start_in_thread(cache_dir=None) as handle:
            client = ServeClient(handle.base_url)
            ...

    On exit the server drains and the thread joins.
    """

    def __init__(self, server: EvaluationServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def base_url(self) -> str:
        """The running server's base URL."""
        return self.server.base_url

    def stop(self, timeout_s: float = 30.0) -> None:
        """Request a graceful shutdown and join the server thread."""
        self.server.request_shutdown()
        self.thread.join(timeout=timeout_s)
        if self.thread.is_alive():  # pragma: no cover - hung shutdown
            raise RuntimeError("server thread did not shut down in time")

    def __enter__(self) -> "RunningServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_in_thread(**kwargs: object) -> RunningServer:
    """Start an :class:`EvaluationServer` on a daemon thread and wait for bind.

    Keyword arguments are forwarded to the :class:`EvaluationServer`
    constructor; ``port`` defaults to ``0`` (ephemeral) so parallel test
    runs never collide.  Raises whatever the server raised if it failed to
    start.
    """
    kwargs.setdefault("port", 0)
    server = EvaluationServer(**kwargs)  # type: ignore[arg-type]
    ready = threading.Event()
    failures: List[BaseException] = []

    async def main() -> None:
        """Start the server, signal readiness, serve until shutdown."""
        await server.start()
        ready.set()
        await server._shutdown_requested.wait()
        await server.shutdown()

    def target() -> None:
        """Thread body: run the server loop, capturing startup failures."""
        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - reported to starter
            failures.append(error)
            ready.set()

    thread = threading.Thread(target=target, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout=60.0):  # pragma: no cover - hung startup
        raise RuntimeError("server did not start within 60 s")
    if failures:
        raise failures[0]
    return RunningServer(server, thread)
