"""Benchmark SERVE: concurrent coalesced load against independent cold runs.

The daemon's value proposition is quantified here: ``N`` clients requesting
the *same* sweep grid at the same time should cost roughly **one** grid
evaluation (plus HTTP overhead), not ``N`` -- the coalescer single-flights
every distinct cache key and the engines' caches serve the overlap.

Two benchmark columns track this in the ``serve-coalescing`` group:

* ``test_bench_serve_independent_cold_runs`` -- the counterfactual: the
  same grid evaluated ``N`` times by ``N`` independent cold engines (what
  ``N`` separate CLI invocations without a daemon would pay).
* ``test_bench_serve_concurrent_coalesced`` -- ``N`` concurrent HTTP
  clients against one fresh daemon.

``tools/check_bench_regression.py`` gates the coalesced column relative to
the independent column from the same run (their ratio cancels machine
speed), and ``test_serve_coalescing_beats_independent_runs`` asserts
in-suite that the coalesced burst is outright faster than the independent
runs on the same machine (medians of alternating rounds).
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.serve import ServeClient, start_in_thread
from repro.serve.protocol import build_sweep_study

#: Simultaneous clients of the coalesced columns.
N_CLIENTS = 4

#: The shared grid every client requests: 3 TDPs x 2 ARs x 5 PDNs.
SERVE_TDPS = (4.0, 18.0, 50.0)
SERVE_ARS = (0.40, 0.56)
SERVE_ROWS = len(SERVE_TDPS) * len(SERVE_ARS) * 5

#: Alternating rounds per side of the in-suite coalescing claim.
CLAIM_ROUNDS = 5


def _cold_run():
    """One full cold evaluation of the shared grid (fresh engine, no cache)."""
    return PdnSpot(enable_cache=False).run(build_sweep_study(SERVE_TDPS, SERVE_ARS))


def _concurrent_burst(handle):
    """Fire the same grid from ``N_CLIENTS`` threads against one daemon."""
    client = ServeClient(handle.base_url, timeout_s=300.0)
    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        futures = [
            pool.submit(
                client.sweep, tdps=list(SERVE_TDPS), ars=list(SERVE_ARS)
            )
            for _ in range(N_CLIENTS)
        ]
        return [future.result() for future in futures]


@pytest.fixture(scope="module")
def serve_reference():
    """The grid ResultSet every client (local or remote) must reproduce."""
    return PdnSpot().run(build_sweep_study(SERVE_TDPS, SERVE_ARS))


@pytest.mark.benchmark(group="serve-coalescing")
def test_bench_serve_independent_cold_runs(benchmark, serve_reference):
    """The no-daemon counterfactual: N separate cold evaluations.

    Each iteration pays N full engine builds and grid evaluations -- the
    real cost of N clients without a shared warm process.  The predictor
    calibration is paid once per process, so only the first run ever
    calibrates.
    """
    results = benchmark.pedantic(
        lambda: [_cold_run() for _ in range(N_CLIENTS)], rounds=5, iterations=1
    )
    assert len(results) == N_CLIENTS
    for resultset in results:
        assert resultset == serve_reference


@pytest.mark.benchmark(group="serve-coalescing")
def test_bench_serve_concurrent_coalesced(benchmark, serve_reference):
    """N concurrent clients against one fresh daemon: one evaluation per key.

    Gated by ``tools/check_bench_regression.py`` relative to the
    independent column from the same run.  Single-flight is proven by
    engine work: every key is computed exactly once (one cache miss per
    row).  How the other requests split between attaching to an in-flight
    future and a later dispatch served from the warm cache depends on when
    each client arrives, so only their sum is asserted.
    """
    handles = []

    def setup():
        handle = start_in_thread()
        handles.append(handle)
        return (handle,), {}

    try:
        responses = benchmark.pedantic(
            _concurrent_burst, setup=setup, rounds=5, iterations=1
        )
        assert len(responses) == N_CLIENTS
        for response in responses:
            assert response.status == "ok"
            assert response.resultset == serve_reference
        server = handles[-1].server
        stats = server._sweep_coalescer.stats
        assert stats.units_requested == SERVE_ROWS * N_CLIENTS
        assert stats.keys_dispatched + stats.keys_coalesced == stats.units_requested
        assert server._spot.cache_info().misses == SERVE_ROWS
    finally:
        for handle in handles:
            handle.stop()


def test_serve_coalescing_beats_independent_runs(serve_reference):
    """The headline claim, asserted outright on this machine.

    A coalesced N-client burst must beat N independent cold runs -- the
    daemon evaluates the grid once while the counterfactual pays it N
    times.  One sample of each side is at the mercy of whatever else the
    host is doing, so the two sides alternate over
    :data:`CLAIM_ROUNDS` rounds (each burst against a fresh daemon) and
    their medians are compared.
    """
    independent_s: List[float] = []
    coalesced_s: List[float] = []
    for round_index in range(CLAIM_ROUNDS):
        sides = ("independent", "coalesced")
        for side in sides if round_index % 2 == 0 else sides[::-1]:
            if side == "independent":
                started = time.perf_counter()
                results = [_cold_run() for _ in range(N_CLIENTS)]
                independent_s.append(time.perf_counter() - started)
            else:
                with start_in_thread() as handle:
                    started = time.perf_counter()
                    responses = _concurrent_burst(handle)
                    coalesced_s.append(time.perf_counter() - started)
                results = [response.resultset for response in responses]
            for resultset in results:
                assert resultset == serve_reference

    coalesced, independent = statistics.median(coalesced_s), statistics.median(independent_s)
    assert coalesced < independent, (
        f"coalesced burst (median {coalesced:.3f} s of {CLAIM_ROUNDS}) should beat "
        f"{N_CLIENTS} independent cold runs (median {independent:.3f} s)"
    )
