"""Tests for the low-dropout regulator model (Eq. 10)."""

import pytest

from repro.util.errors import UnsupportedOperatingPointError
from repro.vr.base import RegulatorOperatingPoint
from repro.vr.ldo import LdoMode, LowDropoutRegulator


def _point(vin, vout, iout):
    return RegulatorOperatingPoint(
        input_voltage_v=vin, output_voltage_v=vout, output_current_a=iout
    )


class TestRegulationMode:
    def test_efficiency_matches_equation_10(self):
        ldo = LowDropoutRegulator()
        point = _point(1.0, 0.5, 2.0)
        assert ldo.efficiency(point) == pytest.approx(0.5 * 0.991)

    def test_efficiency_near_unity_when_voltages_match(self):
        ldo = LowDropoutRegulator()
        point = _point(0.905, 0.9, 2.0)
        # Within the dropout voltage the natural mode is bypass, but in forced
        # regulation the efficiency is still ~Vout/Vin.
        assert ldo.efficiency(point) == pytest.approx((0.9 / 0.905) * 0.991, rel=1e-6)

    def test_graphics_scenario_core_ldo_is_inefficient(self):
        # Observation 2: a 0.5 V core behind a 0.9 V graphics-driven rail has
        # ~55 % conversion efficiency.
        ldo = LowDropoutRegulator()
        point = _point(0.9, 0.5, 3.0)
        assert ldo.efficiency(point) == pytest.approx(0.55, abs=0.01)

    def test_step_up_raises(self):
        ldo = LowDropoutRegulator()
        with pytest.raises(UnsupportedOperatingPointError):
            ldo.efficiency(_point(0.6, 0.9, 1.0))


class TestBypassAndPowerGateModes:
    def test_mode_for_selects_bypass_near_dropout(self):
        ldo = LowDropoutRegulator()
        assert ldo.mode_for(_point(0.61, 0.60, 1.0)) is LdoMode.BYPASS

    def test_mode_for_selects_power_gate_with_no_load(self):
        ldo = LowDropoutRegulator()
        assert ldo.mode_for(_point(1.0, 0.6, 0.0)) is LdoMode.POWER_GATE

    def test_mode_for_selects_regulation_otherwise(self):
        ldo = LowDropoutRegulator()
        assert ldo.mode_for(_point(1.8, 0.6, 1.0)) is LdoMode.REGULATION

    def test_bypass_efficiency_close_to_current_efficiency(self):
        ldo = LowDropoutRegulator()
        ldo.set_mode(LdoMode.BYPASS)
        eta = ldo.efficiency(_point(0.9, 0.9, 1.0))
        assert 0.97 < eta <= 0.991

    def test_power_gate_mode_draws_nothing(self):
        ldo = LowDropoutRegulator()
        ldo.set_mode(LdoMode.POWER_GATE)
        assert ldo.input_power_w(_point(0.9, 0.6, 1.0)) == 0.0
        assert ldo.efficiency(_point(0.9, 0.6, 1.0)) == 0.0


class TestInputPower:
    def test_input_power_follows_efficiency(self):
        ldo = LowDropoutRegulator("ldo", current_efficiency=0.99)
        point = _point(1.0, 0.8, 5.0)
        expected = point.output_power_w / (0.8 * 0.99)
        assert ldo.input_power_w(point) == pytest.approx(expected)

    def test_zero_load_draws_nothing(self):
        ldo = LowDropoutRegulator()
        assert ldo.input_power_w(_point(1.0, 0.8, 0.0)) == 0.0
