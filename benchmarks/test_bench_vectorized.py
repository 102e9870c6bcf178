"""Benchmark ``vectorized-eval``: the columnar core versus the per-point oracle.

Three columns over the same figure-regeneration-scale cold batch (16 TDPs x
20 ARs x 3 workload types x 5 PDNs = 4800 evaluation units, cache disabled,
units built outside the timed section so the columns measure the evaluation
core, not grid materialisation):

* ``columnar_serial`` -- the redesigned batch path: one vectorized NumPy
  pass per ``(pdn, conditions-batch)`` through ``PdnSpot.evaluate_units``.
* ``per_point_serial`` -- the scalar reference oracle (``columnar=False``),
  i.e. the pre-redesign cost of the same batch.
* ``columnar_process`` -- the columnar path sharded across 4 worker
  processes, whole column blocks per chunk.

Every column is asserted bit-identical to the default engine's evaluations;
the columnar/per-point ratio is gated in CI by
``tools/check_bench_regression.py --max-ratio 0.1`` (the columnar path must
stay at least 10x faster), and the whole cold fig7-scale ``PdnSpot.run`` of
``test_bench_sweep.py`` is gated against the per-point column too.
"""

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study

#: The fig7-scale grid (keep in sync with ``test_bench_sweep.py``).
TDPS_W = tuple(4.0 + index * (46.0 / 15.0) for index in range(16))
ARS = tuple(0.40 + index * 0.02 for index in range(20))
WORKLOADS = ("cpu_single_thread", "cpu_multi_thread", "graphics")
ROWS = len(TDPS_W) * len(ARS) * len(WORKLOADS) * 5

PARALLEL_JOBS = 4

#: Rounds of the per-point oracle column, the denominator of the columnar
#: and fig7-scale sweep ``--max-ratio`` gates.
PER_POINT_ROUNDS = 5


def _study() -> Study:
    return (
        Study.builder("vectorized-eval-grid")
        .tdps(*TDPS_W)
        .application_ratios(*ARS)
        .workload_types(*WORKLOADS)
        .build()
    )


@pytest.fixture(scope="module")
def fig7_scale_units():
    """The 4800 ``(pdn_name, conditions, overrides)`` units, built once."""
    spot = PdnSpot()
    return [
        (name, scenario.conditions(), scenario.overrides)
        for scenario in _study().scenarios
        for name in spot.pdns
    ]


@pytest.fixture(scope="module")
def vectorized_reference(fig7_scale_units):
    """The default-engine evaluations every timed column must reproduce.

    Building it also primes the module-level pure-function memos (peak
    powers, exact pow/exp tables, calibration conditions), so the timed
    columns measure steady-state engine cost, not first-import warm-up.
    """
    return PdnSpot().evaluate_units(fig7_scale_units)


@pytest.mark.benchmark(group="vectorized-eval")
def test_bench_vectorized_columnar_serial(
    benchmark, fig7_scale_units, vectorized_reference
):
    spot = PdnSpot(enable_cache=False)
    _ = spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    evaluations = benchmark.pedantic(
        spot.evaluate_units,
        args=(fig7_scale_units,),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert spot.columnar_enabled
    assert len(evaluations) == ROWS
    assert evaluations == vectorized_reference


@pytest.mark.benchmark(group="vectorized-eval")
def test_bench_vectorized_per_point_serial(
    benchmark, fig7_scale_units, vectorized_reference
):
    """The scalar oracle: what the same cold batch cost before the redesign.

    The denominator of two CI ``--max-ratio`` gates, so it runs
    :data:`PER_POINT_ROUNDS` rounds.
    """
    spot = PdnSpot(enable_cache=False, columnar=False)
    _ = spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    evaluations = benchmark.pedantic(
        spot.evaluate_units,
        args=(fig7_scale_units,),
        rounds=PER_POINT_ROUNDS,
        iterations=1,
    )
    assert not spot.columnar_enabled
    assert len(evaluations) == ROWS
    assert evaluations == vectorized_reference


@pytest.mark.benchmark(group="vectorized-eval")
def test_bench_vectorized_columnar_process(
    benchmark, fig7_scale_units, vectorized_reference
):
    """Columnar sharding: whole column blocks per worker-process chunk.

    Worker start-up (fork plus predictor calibration) is part of the timed
    section, as in the other cold process columns; on a single-CPU runner
    this is expected to trail the serial columnar column.
    """
    spot = PdnSpot(enable_cache=False)
    evaluations = benchmark.pedantic(
        spot.evaluate_units,
        args=(fig7_scale_units,),
        kwargs={"executor": "process", "jobs": PARALLEL_JOBS},
        rounds=5,
        iterations=1,
    )
    assert len(evaluations) == ROWS
    assert evaluations == vectorized_reference
