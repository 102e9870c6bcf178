"""Tests for the FlexWatts hybrid adaptive PDN (Sec. 6-7)."""

import pytest

from repro.core.hybrid_vr import PdnMode
from repro.pdn.base import OperatingConditions
from repro.pdn.imbvr import IMbvrPdn
from repro.pdn.ivr import IvrPdn
from repro.pdn.ldo import LdoPdn
from repro.power.domains import COMPUTE_DOMAINS, WorkloadType
from repro.power.power_states import BATTERY_LIFE_STATES


def _conditions(tdp_w, ar=0.56, workload=WorkloadType.CPU_MULTI_THREAD):
    return OperatingConditions.for_active_workload(tdp_w, ar, workload)


class TestForcedModes:
    def test_ldo_mode_matches_ldo_pdn_within_loadline_penalty(self, flexwatts):
        conditions = _conditions(4.0)
        flexwatts_etee = flexwatts.evaluate_in_mode(conditions, PdnMode.LDO_MODE).etee
        ldo_etee = LdoPdn().evaluate(conditions).etee
        assert flexwatts_etee <= ldo_etee
        assert flexwatts_etee > ldo_etee - 0.01

    def test_ivr_mode_matches_imbvr_within_loadline_penalty(self, flexwatts):
        conditions = _conditions(50.0)
        flexwatts_etee = flexwatts.evaluate_in_mode(conditions, PdnMode.IVR_MODE).etee
        imbvr_etee = IMbvrPdn().evaluate(conditions).etee
        assert flexwatts_etee <= imbvr_etee
        assert flexwatts_etee > imbvr_etee - 0.01

    def test_mode_names_are_tagged_in_forced_evaluations(self, flexwatts):
        conditions = _conditions(18.0)
        result = flexwatts.evaluate_in_mode(conditions, PdnMode.IVR_MODE)
        assert "ivr_mode" in result.pdn_name

    @pytest.mark.parametrize("tdp_w", [4.0, 18.0, 50.0])
    def test_input_rail_voltage_follows_the_mode(self, flexwatts, tdp_w):
        # IVR-Mode steps down from the fixed 1.8 V input rail; LDO-Mode
        # lowers V_IN to just above the highest compute-domain voltage.
        conditions = _conditions(tdp_w)
        ivr_rail = flexwatts.evaluate_in_mode(conditions, PdnMode.IVR_MODE).rail_voltages_v
        ldo_rail = flexwatts.evaluate_in_mode(conditions, PdnMode.LDO_MODE).rail_voltages_v
        highest_compute_v = max(conditions.load(kind).voltage_v for kind in COMPUTE_DOMAINS)
        assert ivr_rail["V_IN"] == pytest.approx(1.8, abs=0.1)
        assert highest_compute_v < ldo_rail["V_IN"] < highest_compute_v + 0.1

    @pytest.mark.parametrize("state", BATTERY_LIFE_STATES, ids=lambda state: state.value)
    def test_ldo_mode_draws_less_than_ivr_mode_at_light_load(self, flexwatts, state):
        # The integrated regulators' light-load and quiescent losses are paid
        # only in IVR-Mode.
        conditions = OperatingConditions.for_power_state(18.0, state)
        ivr_mode = flexwatts.evaluate_in_mode(conditions, PdnMode.IVR_MODE)
        ldo_mode = flexwatts.evaluate_in_mode(conditions, PdnMode.LDO_MODE)
        assert ldo_mode.supply_power_w < ivr_mode.supply_power_w


class TestModeSelection:
    def test_low_tdp_selects_ldo_mode(self, flexwatts):
        assert flexwatts.predict_mode(_conditions(4.0)) is PdnMode.LDO_MODE

    def test_high_tdp_selects_ivr_mode(self, flexwatts):
        assert flexwatts.predict_mode(_conditions(50.0)) is PdnMode.IVR_MODE

    def test_idle_states_select_ldo_mode(self, flexwatts):
        for state in BATTERY_LIFE_STATES:
            conditions = OperatingConditions.for_power_state(18.0, state)
            assert flexwatts.predict_mode(conditions) is PdnMode.LDO_MODE

    def test_predictor_agrees_with_oracle_on_clear_cases(self, flexwatts):
        for tdp in (4.0, 8.0, 36.0, 50.0):
            conditions = _conditions(tdp)
            assert flexwatts.predict_mode(conditions) is flexwatts.oracle_mode(conditions)

    def test_predictor_close_to_oracle_everywhere(self, flexwatts):
        # Even where the predictor disagrees with the oracle (near the
        # crossover), the ETEE it forfeits must be tiny.
        for tdp in (4.0, 10.0, 18.0, 25.0, 50.0):
            conditions = _conditions(tdp)
            chosen = flexwatts.evaluate(conditions).etee
            best = max(
                flexwatts.evaluate_in_mode(conditions, PdnMode.IVR_MODE).etee,
                flexwatts.evaluate_in_mode(conditions, PdnMode.LDO_MODE).etee,
            )
            assert chosen >= best - 0.005


class TestHeadlineBehaviour:
    def test_beats_ivr_everywhere(self, flexwatts):
        ivr = IvrPdn()
        for tdp in (4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0):
            conditions = _conditions(tdp)
            assert flexwatts.evaluate(conditions).etee > ivr.evaluate(conditions).etee

    def test_large_gain_over_ivr_at_4w(self, flexwatts):
        conditions = _conditions(4.0)
        gain = flexwatts.evaluate(conditions).etee - IvrPdn().evaluate(conditions).etee
        assert gain > 0.05

    def test_within_a_point_of_the_best_static_pdn(self, flexwatts, all_pdns):
        for tdp in (4.0, 18.0, 50.0):
            conditions = _conditions(tdp)
            best_static = max(
                all_pdns[name].evaluate(conditions).etee for name in ("IVR", "MBVR", "LDO")
            )
            assert flexwatts.evaluate(conditions).etee > best_static - 0.012

    def test_battery_life_power_lower_than_ivr(self, flexwatts):
        from repro.workloads.battery_life import BATTERY_LIFE_WORKLOADS

        ivr = IvrPdn()
        for workload in BATTERY_LIFE_WORKLOADS:
            flexwatts_power = workload.average_power_w(flexwatts)
            ivr_power = workload.average_power_w(ivr)
            assert flexwatts_power < 0.95 * ivr_power


class TestCostInputs:
    def test_three_off_chip_regulators(self, flexwatts):
        assert set(flexwatts.iccmax_requirements_a(18.0)) == {"V_IN", "V_SA", "V_IO"}

    def test_shared_vin_sized_like_ivr_mode(self, flexwatts):
        # Sec. 7.1: high-current workloads run in IVR-Mode, so the shared
        # regulator's Iccmax tracks the IVR-style requirement, not the LDO one.
        requirements = flexwatts.iccmax_requirements_a(50.0)
        ldo_requirements = LdoPdn().iccmax_requirements_a(50.0)
        assert requirements["V_IN"] < 0.75 * ldo_requirements["V_IN"]

    def test_describe_mentions_hybrid(self, flexwatts):
        assert "hybrid" in flexwatts.describe().lower()
