"""Tests for the leakage/dynamic scaling and guardband models (Eq. 2)."""

import pytest

from repro.power.domains import DomainKind, DomainLoad
from repro.power.guardband import guardband_power_w, power_gate_power_w
from repro.power.leakage import scale_power_with_voltage
from repro.util.errors import ModelDomainError


def _load(power_w=1.0, voltage_v=0.8, leakage=0.22, active=True, gated=True):
    return DomainLoad(
        kind=DomainKind.CORE0,
        nominal_power_w=power_w,
        voltage_v=voltage_v,
        leakage_fraction=leakage,
        active=active,
        power_gated_rail=gated,
    )


class TestScalePowerWithVoltage:
    def test_zero_guardband_is_identity(self):
        assert scale_power_with_voltage(2.0, 0.8, 0.0, 0.22) == pytest.approx(2.0)

    def test_equation_2_explicitly(self):
        power = scale_power_with_voltage(1.0, 1.0, 0.1, 0.4, leakage_exponent=2.8)
        expected = 0.4 * 1.1**2.8 + 0.6 * 1.1**2
        assert power == pytest.approx(expected)

    def test_higher_leakage_fraction_scales_more(self):
        low_leak = scale_power_with_voltage(1.0, 0.8, 0.05, 0.22)
        high_leak = scale_power_with_voltage(1.0, 0.8, 0.05, 0.45)
        assert high_leak > low_leak

    def test_monotone_in_guardband(self):
        values = [scale_power_with_voltage(1.0, 0.8, gb, 0.22) for gb in (0.0, 0.01, 0.02, 0.05)]
        assert values == sorted(values)

    def test_negative_guardband_rejected(self):
        with pytest.raises(ModelDomainError):
            scale_power_with_voltage(1.0, 0.8, -0.01, 0.22)

    def test_negative_power_rejected(self):
        with pytest.raises(ModelDomainError):
            scale_power_with_voltage(-1.0, 0.8, 0.01, 0.22)


class TestGuardbandPower:
    def test_guardband_increases_power(self):
        load = _load()
        assert guardband_power_w(load, 0.020) > load.nominal_power_w

    def test_inactive_domain_draws_nothing(self):
        load = _load(active=False)
        assert guardband_power_w(load, 0.020) == 0.0

    def test_typical_guardband_magnitude_is_a_few_percent(self):
        # A 20 mV tolerance band on a 0.8 V rail costs roughly 5 % extra power.
        load = _load(power_w=1.0, voltage_v=0.8)
        pgb = guardband_power_w(load, 0.020)
        assert 1.03 < pgb < 1.08

    def test_power_gate_adds_on_top_of_guardband(self):
        load = _load(power_w=5.0, voltage_v=0.7)
        pgb = guardband_power_w(load, 0.020)
        ppg = power_gate_power_w(load, pgb, 0.020, power_gate_impedance_ohm=1.5e-3)
        assert ppg > pgb

    def test_power_gate_skipped_for_non_gated_rail(self):
        load = _load(gated=False)
        pgb = guardband_power_w(load, 0.020)
        assert power_gate_power_w(load, pgb, 0.020, 1.5e-3) == pytest.approx(pgb)

    def test_zero_impedance_gate_is_free(self):
        load = _load()
        pgb = guardband_power_w(load, 0.020)
        assert power_gate_power_w(load, pgb, 0.020, 0.0) == pytest.approx(pgb)
