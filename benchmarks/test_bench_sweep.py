"""Benchmark E-SWEEP: the pdnspot-cache study grid and the simulation grid.

Three benchmark groups track the sweep engine's perf trajectory:

* ``sweep-grid`` -- the original TDP x AR x power-state study through
  ``PdnSpot.run`` with the cache disabled (seed-equivalent cost) and warm
  (the cached-grid benchmark gated by ``tools/check_bench_regression.py``).
* ``sweep-cold-fig7-scale`` -- a figure-regeneration-scale grid (~4800
  evaluation units) cold.  The serial column (5 rounds) is gated with
  ``--max-ratio`` against the per-point oracle column of
  ``test_bench_vectorized.py``.
* ``sim-scenarios`` -- the trace-driven scenario grid of the ``sim``
  experiment (8 scenarios x 2 TDPs x 5 PDNs, ~3000 simulated phases) through
  ``SimEngine.run``: cold serial versus the
  per-unit ``evaluate_uncached`` loop (the oracle the batch is gated
  against with ``--max-ratio``), plus the warm (memo-cached) run gated
  against the cold serial column by ``tools/check_bench_regression.py``.
"""

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study
from repro.experiments.sim_scenarios import scenario_study
from repro.sim.study import SimEngine

GRID_TDPS_W = (4.0, 8.0, 18.0, 50.0)
GRID_ARS = (0.40, 0.56, 0.80)
GRID_POWER_STATES = ("C0_MIN", "C2", "C8")

#: rows = (TDPs x ARs active + TDPs x states idle) x 5 PDNs
GRID_ROWS = (len(GRID_TDPS_W) * len(GRID_ARS) + len(GRID_TDPS_W) * len(GRID_POWER_STATES)) * 5

#: The figure-regeneration-scale cold grid: 16 TDPs x 20 ARs x 3 workload
#: types = 960 scenarios, 4800 evaluation units across the five PDNs.
FIG7_SCALE_TDPS_W = tuple(4.0 + index * (46.0 / 15.0) for index in range(16))
FIG7_SCALE_ARS = tuple(0.40 + index * 0.02 for index in range(20))
FIG7_SCALE_WORKLOADS = ("cpu_single_thread", "cpu_multi_thread", "graphics")
FIG7_SCALE_ROWS = len(FIG7_SCALE_TDPS_W) * len(FIG7_SCALE_ARS) * len(FIG7_SCALE_WORKLOADS) * 5

def _grid_study() -> Study:
    return (
        Study.builder("pdnspot-cache-grid")
        .tdps(*GRID_TDPS_W)
        .application_ratios(*GRID_ARS)
        .power_states(*GRID_POWER_STATES)
        .build()
    )


def _fig7_scale_study() -> Study:
    return (
        Study.builder("fig7-scale-grid")
        .tdps(*FIG7_SCALE_TDPS_W)
        .application_ratios(*FIG7_SCALE_ARS)
        .workload_types(*FIG7_SCALE_WORKLOADS)
        .build()
    )


@pytest.fixture(scope="module")
def fig7_scale_reference():
    """The cached fig7-scale ResultSet the cold run must reproduce."""
    return PdnSpot().run(_fig7_scale_study())


@pytest.mark.benchmark(group="sweep-grid")
def test_bench_sweep_grid_uncached(benchmark):
    spot = PdnSpot(enable_cache=False)
    study = _grid_study()
    spot.run(study)  # pay the FlexWatts predictor calibration outside the timing
    resultset = benchmark(spot.run, study)
    assert len(resultset) == GRID_ROWS


@pytest.mark.benchmark(group="sweep-grid")
def test_bench_sweep_grid_cached(benchmark):
    spot = PdnSpot()
    study = _grid_study()
    spot.run(study)  # warm the cache (and calibrate the predictor) once
    resultset = benchmark(spot.run, study)
    assert len(resultset) == GRID_ROWS
    info = spot.cache_info()
    assert info.hits > 0
    assert info.size == GRID_ROWS  # one entry per distinct (pdn, conditions)


#: Rounds of the fig7-scale cold serial column, which CI gates against the
#: per-point oracle column (``test_bench_vectorized_per_point_serial``).
FIG7_COLD_ROUNDS = 5


@pytest.mark.benchmark(group="sweep-cold-fig7-scale")
def test_bench_sweep_fig7_scale_cold_serial(benchmark, fig7_scale_reference):
    """The whole cold ``PdnSpot.run``: grid, columnar evaluation and ResultSet."""
    spot = PdnSpot(enable_cache=False)
    study = _fig7_scale_study()
    _ = spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    resultset = benchmark.pedantic(
        spot.run, args=(study,), rounds=FIG7_COLD_ROUNDS, iterations=1
    )
    assert len(resultset) == FIG7_SCALE_ROWS
    assert resultset == fig7_scale_reference


#: rows of the scenario benchmark grid = 8 scenarios x 2 TDPs x 5 PDNs.
SIM_SCENARIO_ROWS = 8 * 2 * 5


@pytest.fixture(scope="module")
def sim_scenario_reference():
    """The cached scenario ResultSet every timed column must reproduce."""
    return SimEngine().run(scenario_study())


#: Rounds of the two cold serial columns the ``--max-ratio`` gate compares.
SIM_COLD_ROUNDS = 5


@pytest.mark.benchmark(group="sim-scenarios")
def test_bench_sim_scenarios_cold_serial(benchmark, sim_scenario_reference):
    engine = SimEngine(enable_cache=False)
    study = scenario_study()
    _ = engine.spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    resultset = benchmark.pedantic(
        engine.run, args=(study,), rounds=SIM_COLD_ROUNDS, iterations=1
    )
    assert len(resultset) == SIM_SCENARIO_ROWS
    assert resultset == sim_scenario_reference


@pytest.mark.benchmark(group="sim-scenarios")
def test_bench_sim_scenarios_per_unit_serial(benchmark, sim_scenario_reference):
    """The per-unit oracle: one ``evaluate_uncached`` simulation per unit.

    The same grid and cache setting as the cold serial column, but every
    simulation resolves and evaluates its own trace.  CI gates the batched
    column against this one with ``--max-ratio``, so the batch pass must keep
    its lead over the oracle on the runner itself.
    """
    engine = SimEngine(enable_cache=False)
    study = scenario_study()
    _ = engine.spot.pdn("FlexWatts").predictor  # calibrate outside the timing
    units = [
        (name, point, point.overrides)
        for point in study.points
        for name in study.pdn_names
    ]
    results = benchmark.pedantic(
        lambda: [engine.evaluate_uncached(*unit) for unit in units],
        rounds=SIM_COLD_ROUNDS,
        iterations=1,
    )
    assert results == SimEngine(enable_cache=False).evaluate_units(units)
    assert len(results) == len(sim_scenario_reference)


@pytest.mark.benchmark(group="sim-scenarios")
def test_bench_sim_scenarios_warm(benchmark, sim_scenario_reference):
    """The memo-cached grid: every simulation served as a cache hit.

    Gated by ``tools/check_bench_regression.py`` relative to the cold serial
    column from the same run, so the gate tracks the simulation memo's
    efficiency rather than the runner's absolute speed.
    """
    engine = SimEngine()
    study = scenario_study()
    engine.run(study)  # warm the simulation memo (and the phase cache) once
    resultset = benchmark(engine.run, study)
    assert resultset == sim_scenario_reference
    info = engine.cache_info()
    assert info.hits > 0
    assert info.size == SIM_SCENARIO_ROWS
