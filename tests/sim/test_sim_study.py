"""SimStudy/SimEngine semantics: grids, executors, caching, adapters.

The simulation engine must honour the same guarantees as the analytic
engine (PR 2): every backend produces a bit-identical ResultSet, duplicate
units are computed once, the memo cache ends a parallel run exactly as warm
as a serial run would leave it, and adaptive (FlexWatts) state never leaks
between grid points.
"""

from __future__ import annotations

import pytest

from repro.analysis.executor import EXECUTORS
from repro.sim.adapters import (
    SIM_METRIC_COLUMNS,
    phases_to_resultset,
    results_to_resultset,
    simulation_record,
)
from repro.sim.study import SimEngine, SimPoint, SimStudy, run_sim
from repro.util.errors import ConfigurationError

BACKENDS = sorted(EXECUTORS)

#: A small but heterogeneous grid: an adaptive-heavy scenario, an idle-heavy
#: scenario, two TDPs.
GRID_SCENARIOS = ("duty-cycled-background", "bursty-interactive")
GRID_TDPS_W = (4.0, 50.0)


def _grid_study() -> SimStudy:
    return (
        SimStudy.builder("sim-grid")
        .scenarios(*GRID_SCENARIOS)
        .tdps(*GRID_TDPS_W)
        .build()
    )


class TestStudyBuilding:
    def test_grid_order_is_scenario_major_then_tdp(self):
        study = _grid_study()
        assert len(study) == 4
        assert [(p.scenario, p.tdp_w) for p in study.points] == [
            ("duty-cycled-background", 4.0),
            ("duty-cycled-background", 50.0),
            ("bursty-interactive", 4.0),
            ("bursty-interactive", 50.0),
        ]

    def test_over_scenarios_convenience(self):
        study = SimStudy.over_scenarios(["race-to-idle"], tdps_w=[18.0])
        assert len(study) == 1
        assert study.points[0].seed == 2020

    def test_parameter_grid_crossed_outermost(self):
        study = (
            SimStudy.builder("overrides")
            .scenarios("race-to-idle")
            .tdps(4.0)
            .parameter_grid({}, {"ivr_tolerance_band_v": 0.010})
            .build()
        )
        assert len(study) == 2
        assert study.points[0].overrides == ()
        assert study.points[1].overrides == (("ivr_tolerance_band_v", 0.010),)

    def test_unknown_scenario_fails_at_build(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            SimStudy.builder("bad").scenarios("no-such-scenario").build()

    def test_empty_study_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one scenario"):
            SimStudy.builder("empty").build()

    def test_invalid_point_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            SimPoint(scenario="race-to-idle", tdp_w=0.0)
        with pytest.raises(ConfigurationError):
            SimPoint(scenario="race-to-idle", tdp_w=4.0, trace_period_s=0.0)


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        engine = SimEngine()
        resultset = engine.run(_grid_study())
        return resultset, engine.cache_info()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_run_matches_serial(self, backend, serial_reference):
        reference, reference_info = serial_reference
        engine = SimEngine()
        resultset = engine.run(_grid_study(), executor=backend, jobs=4)
        assert resultset == reference
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (
            reference_info.hits,
            reference_info.misses,
            reference_info.size,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_run_is_all_hits_and_equal(self, backend, serial_reference):
        reference, _ = serial_reference
        engine = SimEngine()
        engine.run(_grid_study())  # warm serially
        cold_info = engine.cache_info()
        resultset = engine.run(_grid_study(), executor=backend, jobs=4)
        assert resultset == reference
        warm_info = engine.cache_info()
        assert warm_info.misses == cold_info.misses  # nothing recomputed
        assert warm_info.hits == cold_info.hits + len(reference)

    def test_serial_and_parallel_json_is_bit_identical(self, serial_reference):
        reference, _ = serial_reference
        parallel = SimEngine().run(_grid_study(), executor="process", jobs=4)
        assert parallel.to_json() == reference.to_json()
        assert parallel.to_csv() == reference.to_csv()

    def test_run_sim_entry_point(self, serial_reference):
        reference, _ = serial_reference
        assert run_sim(_grid_study(), jobs=2) == reference

    def test_run_sim_rejects_engine_plus_parameters(self):
        with pytest.raises(ConfigurationError, match="not both"):
            run_sim(
                _grid_study(),
                engine=SimEngine(),
                parameters=SimEngine().parameters,
            )


class TestEngineSemantics:
    def test_adaptive_state_never_leaks_between_runs(self):
        """Re-simulating the same point must give an identical result.

        FlexWatts' mode-switch controller is stateful; the engine must hand
        every simulation a fresh controller or the second run would start in
        the mode the first one ended in.
        """
        engine = SimEngine(enable_cache=False)
        point = SimPoint(scenario="bursty-interactive", tdp_w=50.0)
        first = engine.evaluate_uncached("FlexWatts", point, ())
        second = engine.evaluate_uncached("FlexWatts", point, ())
        assert first == second
        assert first.mode_switch_count > 0

    def test_duplicate_units_counted_like_serial(self):
        point = SimPoint(scenario="race-to-idle", tdp_w=18.0)
        units = [("IVR", point, ())] * 3
        engine = SimEngine()
        results = engine.evaluate_units(units, executor="thread", jobs=2)
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (2, 1, 1)
        assert results[0] == results[1] == results[2]

    def test_cached_master_is_caller_isolated(self):
        engine = SimEngine()
        point = SimPoint(scenario="race-to-idle", tdp_w=18.0)
        first = engine.evaluate("IVR", point, ())
        first.phase_records.clear()
        second = engine.evaluate("IVR", point, ())
        assert second.phase_records  # unaffected by the caller's mutation

    def test_pdn_restriction_and_unknown_pdn(self):
        study = (
            SimStudy.builder("restricted")
            .scenarios("race-to-idle")
            .pdns("IVR", "FlexWatts")
            .build()
        )
        resultset = SimEngine().run(study)
        assert resultset.unique("pdn") == ["IVR", "FlexWatts"]
        bad = (
            SimStudy.builder("bad").scenarios("race-to-idle").pdns("NoSuchPdn").build()
        )
        with pytest.raises(ConfigurationError):
            SimEngine().run(bad)

    def test_parameter_overrides_change_the_outcome(self):
        study = (
            SimStudy.builder("overrides")
            .scenarios("sustained-compute")
            .tdps(18.0)
            .parameter_grid({}, {"ivr_tolerance_band_v": 0.030})
            .pdns("IVR")
            .build()
        )
        resultset = SimEngine().run(study)
        records = resultset.to_records()
        assert len(records) == 2
        assert "parameters" not in records[0]
        assert records[1]["parameters"] == {"ivr_tolerance_band_v": 0.030}
        # A wider tolerance band costs guardband power, so the energy moves.
        assert records[0]["total_energy_j"] != records[1]["total_energy_j"]

    def test_phase_cache_shared_across_scenarios(self):
        """Operating points shared between traces hit the analytic cache."""
        engine = SimEngine()
        study = (
            SimStudy.builder("shared-idle")
            .scenarios("duty-cycled-background")
            .tdps(18.0)
            .pdns("IVR")
            .build()
        )
        engine.run(study)
        spot_info = engine.spot.cache_info()
        # 40 identical wake cycles collapse to 3 distinct operating points.
        assert spot_info.size == 3
        assert spot_info.misses == 3


class TestAdapters:
    @pytest.fixture(scope="class")
    def flexwatts_run(self):
        engine = SimEngine()
        point = SimPoint(scenario="bursty-interactive", tdp_w=50.0)
        return engine.evaluate("FlexWatts", point, ())

    def test_simulation_record_fields(self, flexwatts_run):
        record = simulation_record(flexwatts_run, {"scenario": "x", "seed": 1})
        assert record["pdn"] == "FlexWatts"
        assert record["scenario"] == "x"  # identity wins over trace name
        assert record["seed"] == 1
        assert record["total_energy_j"] == pytest.approx(
            flexwatts_run.total_energy_j
        )
        assert record["ldo_mode_time_s"] >= 0.0

    def test_static_record_has_no_mode_columns(self):
        engine = SimEngine()
        run = engine.evaluate(
            "IVR", SimPoint(scenario="race-to-idle", tdp_w=18.0), ()
        )
        record = simulation_record(run)
        assert "ivr_mode_time_s" not in record
        assert record["mode_switch_count"] == 0

    def test_results_to_resultset_round_trips_json(self, flexwatts_run):
        resultset = results_to_resultset([({"seed": 0}, flexwatts_run)])
        from repro.analysis.resultset import ResultSet

        assert ResultSet.from_json(resultset.to_json()) == resultset

    def test_phases_resultset_shape(self, flexwatts_run):
        phases = phases_to_resultset(flexwatts_run)
        assert len(phases) == len(flexwatts_run.phase_records)
        switched = phases.filter(mode_switched=True)
        assert len(switched) == flexwatts_run.mode_switch_count

    def test_normalize_to_with_sim_metric_columns(self):
        study = SimStudy.over_scenarios(["race-to-idle"], tdps_w=[4.0, 50.0])
        resultset = SimEngine().run(study)
        normalised = resultset.normalize_to(
            "IVR",
            value_columns=("total_energy_j", "average_power_w"),
            metric_columns=SIM_METRIC_COLUMNS,
        )
        for record in normalised.filter(pdn="IVR").to_records():
            assert record["total_energy_j"] == pytest.approx(1.0)
            assert record["average_power_w"] == pytest.approx(1.0)
        # Mode-switch counters must be excluded from scenario identity, or
        # the FlexWatts rows would have found no baseline row at all.
        assert len(normalised) == len(resultset)
