"""Tests for the load-line and tolerance-band models (Sec. 2.4)."""

import pytest

from repro.util.errors import ModelDomainError
from repro.vr.load_line import LoadLine


class TestLoadLine:
    def test_no_impedance_means_no_guardband(self):
        result = LoadLine(0.0).apply(1.0, 10.0, 0.5)
        assert result.rail_voltage_v == 1.0
        assert result.rail_power_w == 10.0
        assert result.conduction_loss_w == 0.0

    def test_equation_3_and_4(self):
        # V_LL = V + (Ppeak / V) * R ; P_LL = V_LL * (P / V)
        load_line = LoadLine(2.5e-3)
        result = load_line.apply(rail_voltage_v=1.0, rail_power_w=10.0, application_ratio=0.5)
        peak_current = (10.0 / 0.5) / 1.0
        expected_voltage = 1.0 + 2.5e-3 * peak_current
        assert result.rail_voltage_v == pytest.approx(expected_voltage)
        assert result.rail_power_w == pytest.approx(expected_voltage * 10.0)
        assert result.conduction_loss_w == pytest.approx(expected_voltage * 10.0 - 10.0)

    def test_lower_application_ratio_needs_more_guardband(self):
        load_line = LoadLine(2.5e-3)
        low_ar = load_line.apply(1.0, 10.0, 0.4)
        high_ar = load_line.apply(1.0, 10.0, 0.9)
        assert low_ar.conduction_loss_w > high_ar.conduction_loss_w

    def test_zero_power_rail(self):
        result = LoadLine(2.5e-3).apply(1.0, 0.0, 0.5)
        assert result.rail_power_w == 0.0
        assert result.rail_current_a == 0.0

    def test_invalid_application_ratio_raises(self):
        with pytest.raises(ModelDomainError):
            LoadLine(1e-3).apply(1.0, 5.0, 0.0)
        with pytest.raises(ModelDomainError):
            LoadLine(1e-3).apply(1.0, 5.0, 1.5)

    def test_scaled_load_line(self):
        base = LoadLine(1e-3)
        scaled = base.scaled(1.12)
        assert scaled.impedance_ohm == pytest.approx(1.12e-3)
        assert scaled.apply(1.0, 10.0, 0.5).conduction_loss_w > base.apply(
            1.0, 10.0, 0.5
        ).conduction_loss_w

    def test_voltage_droop(self):
        assert LoadLine(2e-3).voltage_droop_v(10.0) == pytest.approx(0.02)


class TestToleranceBand:
    def test_table2_ranges(self):
        # IVR 18-22 mV, MBVR 18-20 mV, LDO 16-18 mV: the defaults used by the
        # parameter set must sit inside those ranges.
        from repro.power.parameters import default_parameters

        params = default_parameters()
        assert 0.018 <= params.ivr_tolerance_band_v <= 0.022
        assert 0.018 <= params.mbvr_tolerance_band_v <= 0.020
        assert 0.016 <= params.ldo_tolerance_band_v <= 0.018
