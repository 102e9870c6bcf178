"""The long-running evaluation service (daemon, protocol, client).

One warm process owns the evaluation caches and serves sweep,
simulate and optimize requests over stdlib HTTP/JSON, coalescing
concurrent overlapping grids into single-flight evaluations:

* :mod:`repro.serve.server` -- the asyncio daemon (``repro serve``);
* :mod:`repro.serve.coalescer` -- single-flight batching over engine
  cache keys (why N clients cost one evaluation per distinct point);
* :mod:`repro.serve.protocol` -- request schemas shared with the CLI;
* :mod:`repro.serve.client` -- the ``--server`` client that rebuilds
  bit-identical result sets from responses;
* :mod:`repro.serve.stats` -- the ``/v1/stats`` observability surface.

See :doc:`/guides/serving` for the architecture and operational semantics.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.serve.client import (
        EvaluationResponse,
        ServeClient,
        ServerError,
        ServerUnavailable,
    )
    from repro.serve.coalescer import Coalescer, CoalescerStats
    from repro.serve.protocol import (
        EVALUATION_ENDPOINTS,
        OptimizeRequest,
        ProtocolError,
        SimulateRequest,
        SweepRequest,
        parse_optimize_request,
        parse_simulate_request,
        parse_sweep_request,
    )
    from repro.serve.server import (
        DEFAULT_PORT,
        EvaluationServer,
        RunningServer,
        start_in_thread,
    )

__all__ = [
    "Coalescer",
    "CoalescerStats",
    "DEFAULT_PORT",
    "EVALUATION_ENDPOINTS",
    "EvaluationResponse",
    "EvaluationServer",
    "OptimizeRequest",
    "ProtocolError",
    "RunningServer",
    "ServeClient",
    "ServerError",
    "ServerUnavailable",
    "SimulateRequest",
    "SweepRequest",
    "parse_optimize_request",
    "parse_simulate_request",
    "parse_sweep_request",
    "start_in_thread",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.serve.client": ("EvaluationResponse", "ServeClient", "ServerError", "ServerUnavailable"),
    "repro.serve.coalescer": ("Coalescer", "CoalescerStats"),
    "repro.serve.protocol": (
        "EVALUATION_ENDPOINTS", "OptimizeRequest", "ProtocolError", "SimulateRequest",
        "SweepRequest", "parse_optimize_request", "parse_simulate_request", "parse_sweep_request",
    ),
    "repro.serve.server": ("DEFAULT_PORT", "EvaluationServer", "RunningServer", "start_in_thread"),
})
