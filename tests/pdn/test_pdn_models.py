"""Unit tests for the four baseline PDN models (Eq. 1-12)."""

import pytest

from repro.pdn.base import (
    LoadSets,
    OperatingConditions,
    active_loads,
    peak_domain_powers_w,
    power_state_loads,
)
from repro.pdn.imbvr import IMbvrPdn
from repro.pdn.ivr import IvrPdn
from repro.pdn.ldo import LdoPdn
from repro.pdn.mbvr import MbvrPdn
from repro.pdn.registry import available_pdns, build_pdn
from repro.power.domains import COMPUTE_DOMAINS, DomainKind, NominalPowerCurves, WorkloadType
from repro.power.power_states import POWER_STATE_PROFILES, PackageCState
from repro.util.errors import ConfigurationError


ALL_PDN_CLASSES = (IvrPdn, MbvrPdn, LdoPdn, IMbvrPdn)


def _conditions(tdp_w=18.0, ar=0.56, workload=WorkloadType.CPU_MULTI_THREAD):
    return OperatingConditions.for_active_workload(tdp_w, ar, workload)


class TestCommonInvariants:
    @pytest.mark.parametrize("pdn_class", ALL_PDN_CLASSES)
    def test_supply_power_exceeds_nominal_power(self, pdn_class):
        evaluation = pdn_class().evaluate(_conditions())
        assert evaluation.supply_power_w > evaluation.nominal_power_w

    @pytest.mark.parametrize("pdn_class", ALL_PDN_CLASSES)
    def test_etee_is_a_physical_fraction(self, pdn_class):
        for tdp in (4.0, 18.0, 50.0):
            etee = pdn_class().evaluate(_conditions(tdp)).etee
            assert 0.5 < etee < 0.95

    @pytest.mark.parametrize("pdn_class", ALL_PDN_CLASSES)
    def test_loss_breakdown_accounts_for_most_of_the_loss(self, pdn_class):
        evaluation = pdn_class().evaluate(_conditions())
        assert evaluation.breakdown.total_w == pytest.approx(evaluation.loss_w, rel=0.05)

    @pytest.mark.parametrize("pdn_class", ALL_PDN_CLASSES)
    def test_idle_power_state_evaluation(self, pdn_class):
        conditions = OperatingConditions.for_power_state(18.0, PackageCState.C8)
        evaluation = pdn_class().evaluate(conditions)
        assert evaluation.supply_power_w > evaluation.nominal_power_w > 0.0

    @pytest.mark.parametrize("pdn_class", ALL_PDN_CLASSES)
    def test_supply_power_scales_with_tdp(self, pdn_class):
        pdn = pdn_class()
        low = pdn.evaluate(_conditions(4.0)).supply_power_w
        high = pdn.evaluate(_conditions(50.0)).supply_power_w
        assert high > 5.0 * low

    @pytest.mark.parametrize("pdn_class", ALL_PDN_CLASSES)
    def test_describe_mentions_the_pdn(self, pdn_class):
        pdn = pdn_class()
        assert "PDN" in pdn.describe()

    @pytest.mark.parametrize("pdn_class", ALL_PDN_CLASSES)
    def test_chip_input_current_positive(self, pdn_class):
        assert pdn_class().evaluate(_conditions()).chip_input_current_a > 0.0


class TestIvrSpecifics:
    def test_single_off_chip_regulator(self):
        requirements = IvrPdn().iccmax_requirements_a(18.0)
        assert set(requirements) == {"V_IN"}

    def test_input_rail_voltage_is_1v8(self):
        evaluation = IvrPdn().evaluate(_conditions())
        assert evaluation.rail_voltages_v["V_IN"] == pytest.approx(1.8, abs=0.1)

    def test_on_chip_losses_dominate_vr_inefficiency(self):
        breakdown = IvrPdn().evaluate(_conditions(4.0)).breakdown
        assert breakdown.on_chip_vr_w > 0.0
        assert breakdown.off_chip_vr_w > 0.0

    def test_chip_input_current_lower_than_mbvr(self):
        # The IVR PDN feeds the chip at 1.8 V, so its input current is roughly
        # half of the MBVR PDN's (Fig. 5's line plot, ~2x ratio).
        conditions = _conditions(50.0)
        ivr_current = IvrPdn().evaluate(conditions).chip_input_current_a
        mbvr_current = MbvrPdn().evaluate(conditions).chip_input_current_a
        assert mbvr_current > 1.4 * ivr_current


class TestMbvrSpecifics:
    def test_four_off_chip_regulators(self):
        requirements = MbvrPdn().iccmax_requirements_a(18.0)
        assert set(requirements) == {"V_Cores", "V_GFX", "V_SA", "V_IO"}

    def test_compute_conduction_loss_grows_with_tdp(self):
        pdn = MbvrPdn()
        low = pdn.evaluate(_conditions(4.0))
        high = pdn.evaluate(_conditions(50.0))
        low_fraction = low.breakdown.conduction_compute_w / low.supply_power_w
        high_fraction = high.breakdown.conduction_compute_w / high.supply_power_w
        assert high_fraction > 3.0 * low_fraction

    def test_gfx_rail_idle_during_cpu_workload_costs_little(self):
        evaluation = MbvrPdn().evaluate(_conditions())
        assert evaluation.breakdown.rail_details["V_GFX"] < 1.0


class TestLdoSpecifics:
    def test_three_off_chip_regulators(self):
        requirements = LdoPdn().iccmax_requirements_a(18.0)
        assert set(requirements) == {"V_IN", "V_SA", "V_IO"}

    def test_graphics_workload_hurts_ldo_etee(self):
        # Observation 2: the core-vs-graphics voltage gap collapses the core
        # LDO efficiency for graphics workloads.
        pdn = LdoPdn()
        cpu = pdn.evaluate(_conditions(18.0, workload=WorkloadType.CPU_MULTI_THREAD)).etee
        gfx = pdn.evaluate(_conditions(18.0, workload=WorkloadType.GRAPHICS)).etee
        assert gfx < cpu

    def test_input_rail_voltage_tracks_max_compute_voltage(self):
        evaluation = LdoPdn().evaluate(_conditions(50.0, workload=WorkloadType.GRAPHICS))
        assert evaluation.rail_voltages_v["V_IN"] < 1.3  # not the 1.8 V IVR rail


class TestIMbvrSpecifics:
    def test_three_off_chip_regulators(self):
        requirements = IMbvrPdn().iccmax_requirements_a(18.0)
        assert set(requirements) == {"V_IN", "V_SA", "V_IO"}

    def test_beats_plain_ivr_everywhere(self):
        # I+MBVR removes the SA/IO two-stage conversion, so it is never worse
        # than IVR (Sec. 7.1 reports up to +6 %).
        for tdp in (4.0, 18.0, 50.0):
            conditions = _conditions(tdp)
            assert IMbvrPdn().evaluate(conditions).etee > IvrPdn().evaluate(conditions).etee

    def test_v_in_iccmax_smaller_than_ivr(self):
        # I+MBVR's V_IN feeds only the compute domains.
        assert (
            IMbvrPdn().iccmax_requirements_a(50.0)["V_IN"]
            < IvrPdn().iccmax_requirements_a(50.0)["V_IN"]
        )


class TestRegistry:
    def test_all_five_architectures_available(self):
        assert set(available_pdns()) == {"IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"}

    def test_build_is_case_insensitive(self):
        assert build_pdn("ivr").name == "IVR"
        assert build_pdn("flexwatts").name == "FlexWatts"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            build_pdn("does-not-exist")

    def test_build_passes_parameters_through(self):
        from repro.power.parameters import default_parameters

        params = default_parameters().with_overrides(ivr_tolerance_band_v=0.022)
        pdn = build_pdn("IVR", params)
        assert pdn.parameters.ivr_tolerance_band_v == pytest.approx(0.022)


class TestOperatingConditions:
    def test_active_constructor_produces_all_domains(self):
        conditions = _conditions()
        assert {load.kind for load in conditions.loads} == set(DomainKind)

    def test_power_state_constructor_rejects_c0(self):
        from repro.util.errors import ModelDomainError

        with pytest.raises(ModelDomainError):
            OperatingConditions.for_power_state(18.0, PackageCState.C0)

    def test_invalid_application_ratio_rejected(self):
        from repro.util.errors import ModelDomainError

        with pytest.raises(ModelDomainError):
            OperatingConditions.for_active_workload(18.0, 0.0, WorkloadType.CPU_MULTI_THREAD)

    def test_load_lookup(self):
        conditions = _conditions()
        assert conditions.load(DomainKind.SA).kind is DomainKind.SA

    def test_peak_domain_powers_monotone_in_tdp(self):
        low = peak_domain_powers_w(4.0)
        high = peak_domain_powers_w(50.0)
        assert high[DomainKind.CORE0] > low[DomainKind.CORE0]
        assert high[DomainKind.GFX] > low[DomainKind.GFX]

    def test_loads_out_of_domain_order_rejected_at_the_boundary(self):
        # Batches and the models accumulate in DomainKind order, so a load set
        # in any other order is refused where it enters, naming the load.
        conditions = _conditions()
        loads = list(conditions.loads)
        loads[2], loads[3] = loads[3], loads[2]
        message = "loads must be in domain order; load 2 is gfx, expected llc"
        with pytest.raises(ConfigurationError) as via_with_loads:
            conditions.with_loads(tuple(loads))
        assert str(via_with_loads.value) == message
        with pytest.raises(ConfigurationError) as via_constructor:
            OperatingConditions(
                tdp_w=conditions.tdp_w,
                application_ratio=conditions.application_ratio,
                workload_type=conditions.workload_type,
                power_state=conditions.power_state,
                loads=tuple(reversed(conditions.loads)),
            )
        assert str(via_constructor.value) == (
            "loads must be in domain order; load 0 is io, expected core0"
        )


class TestLoadConstruction:
    """The per-domain loads every PDN model consumes (Table 1/2, Sec. 5)."""

    def test_cpu_workload_keeps_graphics_near_idle(self):
        loads = active_loads(18.0, WorkloadType.CPU_MULTI_THREAD)
        assert loads[3].kind is DomainKind.GFX
        assert loads[3].nominal_power_w < loads[0].nominal_power_w

    def test_graphics_workload_shifts_budget_to_gfx(self):
        loads = active_loads(18.0, WorkloadType.GRAPHICS)
        assert loads[3].nominal_power_w > loads[0].nominal_power_w

    def test_nominal_power_scales_with_tdp(self):
        small = _conditions(tdp_w=4.0).nominal_power_w
        large = _conditions(tdp_w=50.0).nominal_power_w
        assert large > 5.0 * small

    @pytest.mark.parametrize(
        "workload,primary",
        [(WorkloadType.CPU_MULTI_THREAD, DomainKind.CORE0), (WorkloadType.GRAPHICS, DomainKind.GFX)],
        ids=["cpu", "graphics"],
    )
    def test_llc_voltage_follows_the_primary_domain(self, workload, primary):
        # Graphics workloads run the LLC at the graphics voltage (Sec. 7.1).
        conditions = _conditions(workload=workload)
        assert conditions.load(DomainKind.LLC).voltage_v == conditions.load(primary).voltage_v

    def test_only_compute_domains_sit_behind_power_gates(self):
        gated = {load.kind for load in _conditions().loads if load.power_gated_rail}
        assert gated == set(COMPUTE_DOMAINS)

    def test_c0_min_keeps_every_domain_active(self):
        loads = power_state_loads(PackageCState.C0_MIN)
        assert all(load.active for load in loads)

    @pytest.mark.parametrize(
        "state",
        [PackageCState.C2, PackageCState.C3, PackageCState.C6, PackageCState.C7, PackageCState.C8],
        ids=lambda state: state.value,
    )
    def test_idle_states_keep_only_sa_and_io_active(self, state):
        active = {load.kind for load in power_state_loads(state) if load.active}
        assert active == {DomainKind.SA, DomainKind.IO}

    @pytest.mark.parametrize("state", list(POWER_STATE_PROFILES), ids=lambda state: state.value)
    def test_power_state_conditions_follow_the_profile(self, state):
        profile = POWER_STATE_PROFILES[state]
        low = OperatingConditions.for_power_state(4.0, state)
        high = OperatingConditions.for_power_state(50.0, state)
        assert low.application_ratio == profile.application_ratio
        assert low.board_vr_state is profile.board_vr_state
        assert low.workload_type is WorkloadType.IDLE
        # A power state's loads are the profile's, whatever the TDP.
        assert low.loads == high.loads

    def test_load_sets_build_each_set_once(self):
        load_sets = LoadSets()
        first = load_sets.active(18.0, WorkloadType.GRAPHICS)
        assert load_sets.active(18.0, WorkloadType.GRAPHICS) is first
        assert first == active_loads(18.0, WorkloadType.GRAPHICS)
        assert load_sets.power_state(PackageCState.C8) is load_sets.power_state(PackageCState.C8)

    def test_curves_and_load_sets_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="pass curves or load_sets, not both"):
            OperatingConditions.for_active_workload(
                18.0,
                0.56,
                WorkloadType.CPU_MULTI_THREAD,
                curves=NominalPowerCurves(),
                load_sets=LoadSets(),
            )

    def test_custom_curves_reach_the_loads(self):
        curves = NominalPowerCurves(idle_compute_w=0.2)
        conditions = OperatingConditions.for_active_workload(
            18.0, 0.56, WorkloadType.CPU_MULTI_THREAD, curves=curves
        )
        assert conditions.load(DomainKind.GFX).nominal_power_w == pytest.approx(0.2)
