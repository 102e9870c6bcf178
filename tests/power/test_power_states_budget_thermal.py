"""Tests for the package power states and the budget manager."""

import pytest

from repro.power.budget import PowerBudgetManager
from repro.power.domains import DomainKind, WorkloadType
from repro.power.power_states import (
    BATTERY_LIFE_STATES,
    PackageCState,
    POWER_STATE_PROFILES,
)
from repro.util.errors import ModelDomainError


class TestPowerStateProfiles:
    def test_every_battery_life_state_has_a_profile(self):
        for state in BATTERY_LIFE_STATES:
            assert state in POWER_STATE_PROFILES

    def test_video_playback_state_powers_match_section5(self):
        # C0_MIN ~2.5 W, C2 ~1.2 W, C8 ~0.13 W (Sec. 5).
        assert POWER_STATE_PROFILES[PackageCState.C0_MIN].total_nominal_power_w == pytest.approx(2.5, abs=0.1)
        assert POWER_STATE_PROFILES[PackageCState.C2].total_nominal_power_w == pytest.approx(1.2, abs=0.1)
        assert POWER_STATE_PROFILES[PackageCState.C8].total_nominal_power_w == pytest.approx(0.13, abs=0.02)

    def test_deeper_states_draw_less_power(self):
        powers = [
            POWER_STATE_PROFILES[state].total_nominal_power_w
            for state in BATTERY_LIFE_STATES
        ]
        assert powers == sorted(powers, reverse=True)

    def test_idle_states_gate_the_compute_domains(self):
        for state in (PackageCState.C2, PackageCState.C6, PackageCState.C8):
            profile = POWER_STATE_PROFILES[state]
            assert DomainKind.CORE0 not in profile.domain_power_w
            assert DomainKind.GFX not in profile.domain_power_w

    def test_profiles_produce_all_six_loads(self):
        loads = POWER_STATE_PROFILES[PackageCState.C8].loads()
        assert len(loads) == 6
        active = [load for load in loads if load.active]
        assert {load.kind for load in active} == {DomainKind.SA, DomainKind.IO}

    def test_is_active_and_is_idle(self):
        assert PackageCState.C0.is_active
        assert PackageCState.C0_MIN.is_active
        assert PackageCState.C6.is_idle
        assert not PackageCState.C6.is_active


class TestPowerBudgetManager:
    def test_split_conserves_the_tdp(self):
        split = PowerBudgetManager().split(18.0, 0.75, WorkloadType.CPU_MULTI_THREAD)
        total = split.sa_io_w + split.llc_w + split.compute_w + split.pdn_loss_w
        assert total == pytest.approx(18.0)

    def test_higher_etee_gives_more_compute_budget(self):
        manager = PowerBudgetManager()
        low = manager.split(18.0, 0.70)
        high = manager.split(18.0, 0.80)
        assert high.compute_w > low.compute_w
        assert high.pdn_loss_w < low.pdn_loss_w

    def test_compute_budget_gain_matches_split_difference(self):
        manager = PowerBudgetManager()
        gain = manager.compute_budget_gain_w(18.0, 0.70, 0.80)
        expected = manager.split(18.0, 0.80).compute_w - manager.split(18.0, 0.70).compute_w
        assert gain == pytest.approx(expected)

    def test_section_3_3_example_magnitude(self):
        # A 5 % ETEE improvement at 4 W frees roughly 0.2-0.3 W of budget
        # (the paper's worked example frees 250 mW going from 75 % to 80 %).
        gain = PowerBudgetManager().compute_budget_gain_w(4.0, 0.75, 0.80)
        assert 0.15 <= gain <= 0.30

    def test_budget_fractions_sum_to_one(self):
        fractions = PowerBudgetManager().split(25.0, 0.72).as_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_infeasible_budget_raises(self):
        with pytest.raises(ModelDomainError):
            PowerBudgetManager().split(4.0, 0.2)
