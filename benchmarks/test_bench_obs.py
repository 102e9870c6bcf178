"""Benchmark ``obs-overhead``: what the observability layer costs.

Two columns over the same fig7-scale cold batch as the ``vectorized-eval``
group (16 TDPs x 20 ARs x 3 workload types x 5 PDNs = 4800 evaluation
units, cache disabled, units built outside the timed section):

* ``tracing_disabled`` -- the production default: every layer is
  instrumented through :mod:`repro.obs` but no tracer is installed, so
  span call sites take the shared no-op path and only bound counters tick.
* ``tracing_enabled`` -- the ``--trace`` configuration: a live tracer
  records every span/instant the batch emits.

CI gates the enabled/disabled mean ratio against the committed baseline
with ``tools/check_bench_regression.py --threshold 1.05``: live tracing's
relative cost may not regress by more than 5%, and the disabled column's
committed mean documents that the no-op path stays indistinguishable from
the uninstrumented ``vectorized-eval`` columns (compare the two groups in
the gate's shared-benchmark printout).
"""

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study
from repro.obs.trace import install_tracer, tracing_enabled, uninstall_tracer

#: The fig7-scale grid (keep in sync with ``test_bench_vectorized.py``).
TDPS_W = tuple(4.0 + index * (46.0 / 15.0) for index in range(16))
ARS = tuple(0.40 + index * 0.02 for index in range(20))
WORKLOADS = ("cpu_single_thread", "cpu_multi_thread", "graphics")
ROWS = len(TDPS_W) * len(ARS) * len(WORKLOADS) * 5


def _study() -> Study:
    return (
        Study.builder("obs-overhead-grid")
        .tdps(*TDPS_W)
        .application_ratios(*ARS)
        .workload_types(*WORKLOADS)
        .build()
    )


@pytest.fixture(scope="module")
def obs_fig7_units():
    """The 4800 ``(pdn_name, conditions, overrides)`` units, built once."""
    spot = PdnSpot()
    return [
        (name, scenario.conditions(), scenario.overrides)
        for scenario in _study().scenarios
        for name in spot.pdns
    ]


@pytest.fixture(scope="module")
def obs_reference(obs_fig7_units):
    """Reference evaluations (also primes the pure-function memos)."""
    return PdnSpot().evaluate_units(obs_fig7_units)


@pytest.mark.benchmark(group="obs-overhead")
def test_bench_obs_tracing_disabled(benchmark, obs_fig7_units, obs_reference):
    """The instrumented cold batch with tracing off (the no-op span path)."""
    spot = PdnSpot(enable_cache=False)
    _ = spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    assert not tracing_enabled()
    evaluations = benchmark.pedantic(
        spot.evaluate_units,
        args=(obs_fig7_units,),
        rounds=9,
        iterations=1,
        warmup_rounds=1,
    )
    assert len(evaluations) == ROWS
    assert evaluations == obs_reference


@pytest.mark.benchmark(group="obs-overhead")
def test_bench_obs_tracing_enabled(benchmark, obs_fig7_units, obs_reference):
    """The same cold batch with a live tracer recording every span."""
    spot = PdnSpot(enable_cache=False)
    _ = spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    tracer = install_tracer()
    try:
        evaluations = benchmark.pedantic(
            spot.evaluate_units,
            args=(obs_fig7_units,),
            rounds=9,
            iterations=1,
            warmup_rounds=1,
        )
    finally:
        uninstall_tracer()
    assert len(evaluations) == ROWS
    assert evaluations == obs_reference
    assert len(tracer) > 0  # the batch actually recorded spans
