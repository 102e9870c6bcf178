"""Benchmark ``vectorized-eval``: the columnar core versus the per-point oracle.

Three columns over the same figure-regeneration-scale cold batch (16 TDPs x
20 ARs x 3 workload types x 5 PDNs = 4800 evaluation units, cache disabled,
units built outside the timed section so the columns measure the evaluation
core, not grid materialisation):

* ``columnar_serial`` -- the redesigned batch path: one vectorized NumPy
  pass per ``(pdn, conditions-batch)`` through ``PdnSpot.evaluate_units``.
* ``per_point_serial`` -- the scalar reference oracle (``columnar=False``),
  i.e. the pre-redesign cost of the same batch.

A third column, ``columnar_calibration_size``, makes one columnar call per
PDN over the FlexWatts calibration grid (132 lanes): the size at which
calibration and the interval simulator call the kernels, where a call's
fixed cost outweighs its per-lane work.  It is reported for its trend line
and gated by nothing.

Every column is asserted bit-identical to the default engine's evaluations;
the columnar/per-point ratio is gated in CI by
``tools/check_bench_regression.py --max-ratio 0.1`` (the columnar path must
stay at least 10x faster), and the whole cold fig7-scale ``PdnSpot.run`` of
``test_bench_sweep.py`` is gated against the per-point column too.
"""

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study
from repro.core.calibration import (
    DEFAULT_AR_GRID,
    DEFAULT_TDP_GRID_W,
    _calibration_conditions,
)
from repro.pdn import columnar
from repro.power.power_states import BATTERY_LIFE_STATES

#: The fig7-scale grid (keep in sync with ``test_bench_sweep.py``).
TDPS_W = tuple(4.0 + index * (46.0 / 15.0) for index in range(16))
ARS = tuple(0.40 + index * 0.02 for index in range(20))
WORKLOADS = ("cpu_single_thread", "cpu_multi_thread", "graphics")
ROWS = len(TDPS_W) * len(ARS) * len(WORKLOADS) * 5

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
    assert spot.evaluate_columns([]) == []  # the engine offers its columns
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
    assert spot.evaluate_columns([]) is None  # the engine declines every batch
    assert len(evaluations) == ROWS
    assert evaluations == vectorized_reference


@pytest.mark.benchmark(group="vectorized-eval")
def test_bench_vectorized_columnar_calibration_size(benchmark):
    """One calibration-grid-sized columnar call per PDN (reported, not gated)."""
    conditions = _calibration_conditions(
        DEFAULT_TDP_GRID_W, DEFAULT_AR_GRID, BATTERY_LIFE_STATES
    )
    spot = PdnSpot(enable_cache=False)
    pdns = [spot.pdn(name) for name in spot.pdns]
    _ = spot.pdn("FlexWatts").predictor  # calibrate outside the timing

    def one_call_per_pdn():
        return [columnar.evaluate_columns(pdn, conditions) for pdn in pdns]

    evaluations = benchmark.pedantic(
        one_call_per_pdn, rounds=5, iterations=1, warmup_rounds=1
    )
    assert evaluations == [[pdn.evaluate(c) for c in conditions] for pdn in pdns]
