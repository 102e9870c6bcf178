"""Tests for the Study/ResultSet query API and the cached evaluation engine."""

import dataclasses
import json

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.resultset import MISSING, ResultSet
from repro.analysis.study import Scenario, Study
from repro.pdn.base import OperatingConditions
from repro.pdn.registry import build_pdn
from repro.power.domains import WorkloadType
from repro.power.power_states import BATTERY_LIFE_STATES, PackageCState
from repro.util.errors import ConfigurationError


@pytest.fixture(scope="module")
def spot():
    return PdnSpot()


# --------------------------------------------------------------------------- #
# Seed-identical reference implementations of the legacy sweeps
# --------------------------------------------------------------------------- #
def seed_sweep_tdp(pdns, tdps_w, application_ratio=0.56, workload_type=WorkloadType.CPU_MULTI_THREAD):
    records = []
    for tdp_w in tdps_w:
        conditions = OperatingConditions.for_active_workload(
            tdp_w, application_ratio, workload_type
        )
        for pdn in pdns:
            evaluation = pdn.evaluate(conditions)
            records.append(
                {
                    "pdn": pdn.name,
                    "tdp_w": tdp_w,
                    "application_ratio": application_ratio,
                    "workload_type": workload_type.value,
                    "etee": evaluation.etee,
                    "supply_power_w": evaluation.supply_power_w,
                    "nominal_power_w": evaluation.nominal_power_w,
                }
            )
    return records


def seed_sweep_power_states(pdns, tdp_w, power_states=BATTERY_LIFE_STATES):
    records = []
    for state in power_states:
        conditions = OperatingConditions.for_power_state(tdp_w, state)
        for pdn in pdns:
            evaluation = pdn.evaluate(conditions)
            records.append(
                {
                    "pdn": pdn.name,
                    "tdp_w": tdp_w,
                    "power_state": state.value,
                    "etee": evaluation.etee,
                    "supply_power_w": evaluation.supply_power_w,
                    "nominal_power_w": evaluation.nominal_power_w,
                }
            )
    return records


class TestStudyBuilder:
    def test_grid_order_is_workload_tdp_ar(self):
        study = (
            Study.builder("grid")
            .tdps(4.0, 18.0)
            .application_ratios(0.4, 0.8)
            .workload_types(WorkloadType.CPU_SINGLE_THREAD, WorkloadType.GRAPHICS)
            .build()
        )
        assert len(study.scenarios) == 8
        first, second = study.scenarios[0], study.scenarios[1]
        assert first.workload_type is WorkloadType.CPU_SINGLE_THREAD
        assert (first.tdp_w, first.application_ratio) == (4.0, 0.4)
        assert (second.tdp_w, second.application_ratio) == (4.0, 0.8)
        # Last scenario: second workload type, last TDP, last AR.
        last = study.scenarios[-1]
        assert last.workload_type is WorkloadType.GRAPHICS
        assert (last.tdp_w, last.application_ratio) == (18.0, 0.8)

    def test_power_states_appended_after_active_grid(self):
        study = (
            Study.builder("mixed")
            .tdps(18.0)
            .application_ratios(0.56)
            .power_states(PackageCState.C2, "C8")
            .build()
        )
        assert [s.power_state for s in study.scenarios] == [
            PackageCState.C0,
            PackageCState.C2,
            PackageCState.C8,
        ]
        assert study.scenarios[1].application_ratio is None

    def test_power_state_only_study_has_no_active_part(self):
        study = Study.over_power_states(18.0)
        assert len(study.scenarios) == len(BATTERY_LIFE_STATES)
        assert all(not s.is_active for s in study.scenarios)

    def test_defaults_fill_ar_and_workload(self):
        study = Study.builder("defaults").tdps(4.0).build()
        scenario = study.scenarios[0]
        assert scenario.application_ratio == pytest.approx(0.56)
        assert scenario.workload_type is WorkloadType.CPU_MULTI_THREAD

    def test_parameter_grid_crosses_scenarios(self):
        study = (
            Study.builder("what-if")
            .tdps(10.0)
            .parameter_grid({}, {"ivr_tolerance_band_v": 0.010})
            .build()
        )
        assert len(study.scenarios) == 2
        assert study.scenarios[0].overrides == ()
        assert study.scenarios[1].overrides == (("ivr_tolerance_band_v", 0.010),)

    def test_c0_rejected_as_power_state(self):
        with pytest.raises(ConfigurationError):
            Study.builder("bad").tdps(4.0).power_states(PackageCState.C0)

    def test_empty_study_rejected(self):
        with pytest.raises(ConfigurationError):
            Study.builder("empty").build()

    def test_axes_without_tdps_rejected(self):
        # Axes are crossed with TDPs; without any they would be dropped.
        builder = Study.builder("lost-axis").power_states("C2")
        builder.scenario(Scenario(tdp_w=4.0, power_state=PackageCState.C8))
        with pytest.raises(ConfigurationError):
            builder.build()

    def test_explicit_scenarios_alone_are_fine(self):
        study = (
            Study.builder("explicit")
            .scenario(Scenario(tdp_w=4.0, power_state=PackageCState.C8))
            .build()
        )
        assert len(study.scenarios) == 1

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(tdp_w=4.0, power_state=PackageCState.C0)  # missing AR/type
        with pytest.raises(ConfigurationError):
            Scenario(
                tdp_w=4.0,
                power_state=PackageCState.C8,
                application_ratio=0.5,
            )


class TestResultSet:
    @pytest.fixture()
    def resultset(self):
        return ResultSet.from_records(
            [
                {"pdn": "IVR", "tdp_w": 4.0, "etee": 0.5},
                {"pdn": "MBVR", "tdp_w": 4.0, "etee": 0.6},
                {"pdn": "IVR", "tdp_w": 18.0, "etee": 0.7, "power_state": "C2"},
            ],
            name="unit",
        )

    def test_ragged_records_round_trip(self, resultset):
        records = resultset.to_records()
        assert records[0] == {"pdn": "IVR", "tdp_w": 4.0, "etee": 0.5}
        # The power_state cell exists only on the row that provided it.
        assert "power_state" not in records[0]
        assert records[2]["power_state"] == "C2"
        assert ResultSet.from_records(records, name="unit") == resultset

    def test_filter_by_equality_and_predicate(self, resultset):
        assert len(resultset.filter(pdn="IVR")) == 2
        assert len(resultset.filter(pdn="IVR", tdp_w=4.0)) == 1
        assert len(resultset.filter(lambda row: row["etee"] > 0.55)) == 2
        # Rows missing a constrained column never match.
        assert len(resultset.filter(power_state="C2")) == 1

    def test_filter_rejects_unknown_column(self, resultset):
        # A typo'd keyword should fail loudly, not silently match nothing.
        with pytest.raises(ConfigurationError):
            resultset.filter(pdn_name="IVR")

    def test_unique_and_column(self, resultset):
        assert resultset.unique("pdn") == ["IVR", "MBVR"]
        assert resultset.column("power_state")[0] is MISSING
        with pytest.raises(ConfigurationError):
            resultset.column("nope")

    def test_pivot(self, resultset):
        table = resultset.pivot("tdp_w", "pdn", "etee")
        assert table[4.0]["MBVR"] == pytest.approx(0.6)
        assert table[18.0] == {"IVR": 0.7}

    def test_normalize_to_baseline(self):
        resultset = ResultSet.from_records(
            [
                {"pdn": "IVR", "tdp_w": 4.0, "etee": 0.5},
                {"pdn": "MBVR", "tdp_w": 4.0, "etee": 0.6},
                {"pdn": "IVR", "tdp_w": 18.0, "etee": 0.8},
                {"pdn": "MBVR", "tdp_w": 18.0, "etee": 0.4},
            ]
        )
        normalised = resultset.normalize_to("IVR", value_columns=("etee",))
        assert normalised.column("etee") == pytest.approx([1.0, 1.2, 1.0, 0.5])

    def test_normalize_missing_baseline_rejected(self):
        resultset = ResultSet.from_records([{"pdn": "MBVR", "tdp_w": 4.0, "etee": 0.6}])
        with pytest.raises(ConfigurationError):
            resultset.normalize_to("IVR", value_columns=("etee",))

    def test_normalize_missing_baseline_cell_rejected(self):
        # A baseline row lacking the value column must not silently leave
        # absolute values mixed in with ratios.
        resultset = ResultSet.from_records(
            [
                {"pdn": "IVR", "tdp_w": 4.0},
                {"pdn": "MBVR", "tdp_w": 4.0, "etee": 0.6},
            ]
        )
        with pytest.raises(ConfigurationError):
            resultset.normalize_to("IVR", value_columns=("etee",))

    def test_json_round_trip(self, resultset):
        text = resultset.to_json(indent=2)
        rebuilt = ResultSet.from_json(text)
        assert rebuilt == resultset
        assert rebuilt.name == "unit"
        payload = json.loads(text)
        assert payload["columns"] == ["pdn", "tdp_w", "etee", "power_state"]
        # Missing cells serialise as null.
        assert payload["rows"][0][-1] is None

    def test_from_json_rejects_non_resultset_payloads(self):
        with pytest.raises(ConfigurationError):
            ResultSet.from_json('{"foo": 1}')

    def test_csv_layout(self, resultset):
        lines = resultset.to_csv().splitlines()
        assert lines[0] == "pdn,tdp_w,etee,power_state"
        assert lines[1] == "IVR,4.0,0.5,"
        assert lines[3].endswith(",C2")

    def test_concat_and_ragged_guard(self, resultset):
        doubled = ResultSet.concat([resultset, resultset])
        assert len(doubled) == 2 * len(resultset)
        with pytest.raises(ConfigurationError):
            ResultSet({"a": [1, 2], "b": [1]})


class TestSeedEquivalence:
    """PdnSpot.run / the shims reproduce the seed sweep records exactly."""

    def test_run_matches_seed_tdp_sweep(self, spot):
        pdns = [build_pdn(name) for name in spot.pdns]
        expected = seed_sweep_tdp(pdns, (4.0, 18.0, 50.0))
        actual = spot.run(Study.over_tdps((4.0, 18.0, 50.0))).to_records()
        assert actual == expected

    def test_run_matches_seed_application_ratio_sweep(self, spot):
        pdns = [build_pdn(name) for name in spot.pdns]
        expected = seed_sweep_tdp(pdns, (18.0,), 0.4)
        grid = Study.over_application_ratios((0.4,), 18.0)
        assert spot.run(grid).to_records() == expected

    def test_run_matches_seed_power_state_sweep(self, spot):
        pdns = [build_pdn(name) for name in spot.pdns]
        expected = seed_sweep_power_states(pdns, 18.0)
        actual = spot.run(Study.over_power_states(18.0)).to_records()
        assert actual == expected

    def test_pdn_restriction(self, spot):
        study = Study.builder("subset").tdps(4.0).pdns("IVR", "FlexWatts").build()
        records = spot.run(study).to_records()
        assert [record["pdn"] for record in records] == ["IVR", "FlexWatts"]

    def test_unknown_pdn_rejected(self, spot):
        study = Study.builder("bad").tdps(4.0).pdns("NOPE").build()
        with pytest.raises(ConfigurationError):
            spot.run(study)


def _count_evaluations(spot):
    """Count every evaluation ``spot`` computes: each call of a PDN
    instance's ``evaluate`` and each unit of a columnar batch."""
    counter = {"calls": 0}
    for pdn in spot.pdns.values():
        original = pdn.evaluate

        def counting(conditions, _original=original):
            counter["calls"] += 1
            return _original(conditions)

        pdn.evaluate = counting
    original_columns = spot.evaluate_columns

    def counting_columns(units):
        counter["calls"] += len(units)
        return original_columns(units)

    spot.evaluate_columns = counting_columns
    return counter


class TestEvaluationCache:
    def test_same_point_evaluated_once(self):
        spot = PdnSpot(pdn_names=["IVR", "MBVR"])
        counter = _count_evaluations(spot)
        conditions = OperatingConditions.for_active_workload(
            4.0, 0.56, WorkloadType.CPU_MULTI_THREAD
        )
        points = [("IVR", conditions), ("IVR", conditions), ("MBVR", conditions)]
        units = [(name, conditions, ()) for name, conditions in points]
        first = spot.evaluate_units(units)
        second = spot.evaluate_units(units)
        assert counter["calls"] == 2  # one per distinct (pdn, conditions)
        assert first[0] == first[1] == second[0]
        info = spot.cache_info()
        assert info.misses == 2
        assert info.hits == 4
        assert info.size == 2
        assert 0.0 < info.hit_rate < 1.0

    def test_equal_conditions_built_separately_share_a_cache_entry(self):
        spot = PdnSpot(pdn_names=["IVR"])
        counter = _count_evaluations(spot)
        first = OperatingConditions.for_active_workload(
            18.0, 0.56, WorkloadType.CPU_MULTI_THREAD
        )
        second = OperatingConditions.for_active_workload(
            18.0, 0.56, WorkloadType.CPU_MULTI_THREAD
        )
        spot.evaluate("IVR", first)
        spot.evaluate("IVR", second)
        assert counter["calls"] == 1

    def test_caller_mutation_does_not_corrupt_the_cache(self):
        spot = PdnSpot(pdn_names=["IVR"])
        conditions = OperatingConditions.for_active_workload(
            4.0, 0.56, WorkloadType.CPU_MULTI_THREAD
        )
        first = spot.evaluate("IVR", conditions)
        reference = spot.evaluate_uncached("IVR", conditions)
        # Cache hits share one read-only evaluation: a caller's edit cannot
        # happen at all, rather than being isolated by a copy.
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.breakdown.other_w += 99.0
        with pytest.raises(TypeError):
            first.rail_voltages_v["injected"] = 1.0
        with pytest.raises(TypeError):
            first.breakdown.rail_details["injected"] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.rail_voltages_v = {}
        second = spot.evaluate("IVR", conditions)
        assert second is first
        assert second == reference
        assert "injected" not in second.rail_voltages_v

    def test_clear_cache(self):
        spot = PdnSpot(pdn_names=["IVR"])
        conditions = OperatingConditions.for_power_state(18.0, PackageCState.C8)
        spot.evaluate("IVR", conditions)
        spot.clear_cache()
        info = spot.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_disabled_cache_reevaluates(self):
        spot = PdnSpot(pdn_names=["IVR"], enable_cache=False)
        counter = _count_evaluations(spot)
        conditions = OperatingConditions.for_power_state(18.0, PackageCState.C8)
        spot.evaluate("IVR", conditions)
        spot.evaluate("IVR", conditions)
        assert counter["calls"] == 2

    def test_cached_and_uncached_results_identical(self):
        cached = PdnSpot(pdn_names=["IVR", "MBVR"])
        uncached = PdnSpot(pdn_names=["IVR", "MBVR"], enable_cache=False)
        study = Study.over_tdps((4.0, 18.0))
        assert cached.run(study) == uncached.run(study)

    def test_parameter_override_variants(self):
        spot = PdnSpot(pdn_names=["IVR"])
        study = (
            Study.builder("what-if")
            .tdps(10.0)
            .parameter_grid({}, {"ivr_tolerance_band_v": 0.040})
            .build()
        )
        records = spot.run(study).to_records()
        assert len(records) == 2
        assert "parameters" not in records[0]
        assert records[1]["parameters"] == {"ivr_tolerance_band_v": 0.040}
        # A 2x tolerance band costs the IVR PDN efficiency.
        assert records[1]["etee"] < records[0]["etee"]

    def test_override_resultsets_support_normalize_and_unique(self):
        # Dict-valued 'parameters' cells must not break hashable-key helpers.
        spot = PdnSpot(pdn_names=["IVR", "MBVR"])
        study = (
            Study.builder("what-if")
            .tdps(10.0)
            .parameter_grid({}, {"ivr_tolerance_band_v": 0.040})
            .build()
        )
        results = spot.run(study)
        normalised = results.normalize_to("IVR", value_columns=("etee",))
        assert normalised.filter(pdn="IVR").column("etee") == pytest.approx([1.0, 1.0])
        assert results.unique("parameters") == [{"ivr_tolerance_band_v": 0.040}]


class TestFig8CachedRegeneration:
    """The acceptance criterion: regenerating the Fig. 8 grid through the
    cached engine performs strictly fewer PowerDeliveryNetwork.evaluate calls
    than the seed (uncached) path."""

    @staticmethod
    def _regenerate(spot):
        from repro.experiments import fig8_evaluation as fig8

        tdps = (4.0, 18.0, 50.0)
        fig8.spec_performance_sweep(tdps_w=tdps, spot=spot)
        fig8.graphics_performance_sweep(tdps_w=tdps, spot=spot)
        fig8.battery_life_power(spot=spot)

    def test_cached_engine_makes_strictly_fewer_evaluate_calls(self):
        cached = PdnSpot()
        uncached = PdnSpot(enable_cache=False)
        cached_counter = _count_evaluations(cached)
        uncached_counter = _count_evaluations(uncached)
        self._regenerate(cached)
        self._regenerate(uncached)
        assert cached_counter["calls"] < uncached_counter["calls"]
        # The cache removes at least the duplicated baseline evaluations.
        assert cached.cache_info().hits > 0

    def test_cached_and_seed_paths_agree(self):
        from repro.experiments import fig8_evaluation as fig8

        cached = PdnSpot()
        uncached = PdnSpot(enable_cache=False)
        assert fig8.battery_life_power(spot=cached) == fig8.battery_life_power(
            spot=uncached
        )
        assert fig8.spec_performance_sweep(
            tdps_w=(4.0,), spot=cached
        ) == fig8.spec_performance_sweep(tdps_w=(4.0,), spot=uncached)
