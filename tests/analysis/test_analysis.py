"""Tests for the PDNspot facade, sweeps, validation harness and reporting."""

import pytest

from repro.analysis.comparison import normalised_metric_table
from repro.analysis.pdnspot import PdnSpot
from repro.analysis.reporting import format_mapping_table, format_table
from repro.analysis.study import Study
from repro.analysis.validation import ValidationHarness
from repro.pdn.base import OperatingConditions
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError, UnsupportedOperatingPointError
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS


@pytest.fixture(scope="module")
def spot():
    return PdnSpot(pdn_names=["IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"])


class TestPdnSpotFacade:
    def test_compare_etee_has_all_pdns(self, spot):
        table = spot.compare_etee(18.0)
        assert set(table) == {"IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"}

    def test_flexwatts_tops_the_4w_comparison(self, spot):
        table = spot.compare_etee(4.0)
        assert table["FlexWatts"] > table["IVR"]
        assert table["FlexWatts"] >= table["I+MBVR"]

    def test_power_state_comparison(self, spot):
        table = spot.compare_power_state_etee(18.0, PackageCState.C8)
        assert table["MBVR"] > table["IVR"]

    def test_tdp_sweep_record_count(self, spot):
        records = spot.tdp_sweep((4.0, 18.0, 50.0))
        assert len(records) == 3 * 5

    def test_performance_comparison_normalised_to_ivr(self, spot):
        table = spot.compare_performance(SPEC_CPU2006_BENCHMARKS[:5], 4.0)
        assert table["IVR"] == pytest.approx(1.0)
        assert table["FlexWatts"] > 1.1

    def test_battery_life_table_structure(self, spot):
        table = spot.compare_battery_life_power()
        assert set(table) == {
            "video_playback",
            "video_conferencing",
            "web_browsing",
            "light_gaming",
        }
        for powers in table.values():
            assert powers["FlexWatts"] < powers["IVR"]

    def test_bom_and_area_comparisons(self, spot):
        bom = spot.compare_bom(18.0)
        area = spot.compare_board_area(18.0)
        assert bom["MBVR"] > bom["FlexWatts"]
        assert area["MBVR"] > area["FlexWatts"]

    def test_unknown_pdn_rejected(self, spot):
        with pytest.raises(ConfigurationError):
            spot.pdn("NOPE")

    def test_baseline_must_be_instantiated(self):
        with pytest.raises(ConfigurationError):
            PdnSpot(pdn_names=["MBVR"], baseline_name="IVR")

    def test_explicit_evaluation(self, spot):
        conditions = OperatingConditions.for_active_workload(
            18.0, 0.56, WorkloadType.CPU_MULTI_THREAD
        )
        evaluation = spot.evaluate("MBVR", conditions)
        assert evaluation.pdn_name == "MBVR"


class TestFailingPointError:
    """A model error names the point it failed at, not only the rail."""

    PREFIX = (
        "MBVR at TDP 45 W, AR 0.01, workload cpu_multi_thread, power state C0: "
        "V_Cores: voltage headroom"
    )

    @pytest.mark.parametrize("enable_cache", [True, False])
    def test_run_names_the_failing_point(self, enable_cache):
        study = Study.builder("ar-0.01").tdps(4.0, 45.0).application_ratios(0.01).build()
        with pytest.raises(UnsupportedOperatingPointError) as raised:
            PdnSpot(enable_cache=enable_cache).run(study)
        assert str(raised.value).startswith(self.PREFIX)
        cause = raised.value.__cause__
        assert isinstance(cause, UnsupportedOperatingPointError)
        assert str(cause).startswith("V_Cores: voltage headroom")

    def test_evaluate_names_the_failing_point(self):
        conditions = OperatingConditions.for_active_workload(
            45.0, 0.01, WorkloadType.CPU_MULTI_THREAD
        )
        with pytest.raises(UnsupportedOperatingPointError) as raised:
            PdnSpot().evaluate("MBVR", conditions)
        assert str(raised.value).startswith(self.PREFIX)


class TestSweeps:
    def test_study_tdp_sweep_records(self):
        spot = PdnSpot(pdn_names=["IVR", "MBVR"])
        records = spot.run(Study.over_tdps((4.0, 18.0))).to_records()
        assert len(records) == 4
        assert {record["pdn"] for record in records} == {"IVR", "MBVR"}

    def test_study_application_ratio_sweep_monotone_for_mbvr(self):
        spot = PdnSpot(pdn_names=["MBVR"], baseline_name="MBVR")
        records = spot.run(
            Study.over_application_ratios((0.4, 0.6, 0.8), 18.0)
        ).to_records()
        etees = [record["etee"] for record in records]
        assert etees == sorted(etees)

    def test_records_for_pdn_filter(self):
        spot = PdnSpot(pdn_names=["IVR", "MBVR"])
        records = spot.run(Study.over_tdps((4.0,))).to_records()
        assert len([record for record in records if record["pdn"] == "IVR"]) == 1


class TestValidationHarness:
    def test_accuracy_matches_the_papers_ballpark(self):
        harness = ValidationHarness(seed=11)
        summaries = harness.validate_all(trace_count_per_type=5)
        for summary in summaries.values():
            # The paper reports ~99 % average accuracy; the synthetic reference
            # introduces parameter jitter, so we accept >= 95 %.
            assert summary.average_accuracy > 0.95
            assert summary.min_accuracy > 0.85
            assert summary.max_accuracy <= 1.0

    def test_power_state_validation(self):
        harness = ValidationHarness(seed=11)
        summary = harness.validate_power_states("IVR")
        assert len(summary.records) == 6
        assert summary.average_accuracy > 0.9

    def test_reference_parameters_are_perturbed(self):
        harness = ValidationHarness(seed=11)
        reference = harness.reference_parameters()
        nominal = harness._nominal_parameters
        assert reference.ivr_tolerance_band_v != nominal.ivr_tolerance_band_v


class TestComparisonAndReporting:
    def test_normalised_metric_table(self):
        table = normalised_metric_table({"IVR": 2.0, "MBVR": 4.0})
        assert table["IVR"] == pytest.approx(1.0)
        assert table["MBVR"] == pytest.approx(2.0)

    def test_normalisation_requires_reference(self):
        with pytest.raises(ConfigurationError):
            normalised_metric_table({"MBVR": 4.0})

    def test_format_table_alignment_and_title(self):
        text = format_table(["a", "bb"], [[1.0, "x"], [2.0, "yy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_mapping_table(self):
        text = format_mapping_table({"row1": {"c1": 1.0, "c2": 2.0}})
        assert "row1" in text and "c1" in text
