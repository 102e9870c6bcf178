"""Tests for the DVFS curves and sustained operating points (Table 1)."""

import pytest

from repro.power.domains import WorkloadType
from repro.soc.dvfs import (
    CORE_VF_CURVE,
    GFX_VF_CURVE,
    compute_voltage_for_tdp,
    gfx_voltage_for_tdp,
    sustained_core_frequency_ghz,
    sustained_gfx_frequency_ghz,
)


class TestVoltageFrequencyCurves:
    def test_core_curve_spans_table1_range(self):
        assert CORE_VF_CURVE.min_frequency_ghz == pytest.approx(0.8)
        assert CORE_VF_CURVE.max_frequency_ghz == pytest.approx(4.0)

    def test_gfx_curve_spans_table1_range(self):
        assert GFX_VF_CURVE.min_frequency_ghz == pytest.approx(0.1)
        assert GFX_VF_CURVE.max_frequency_ghz == pytest.approx(1.2)

    def test_voltage_monotone_in_frequency(self):
        voltages = [CORE_VF_CURVE.voltage_for_frequency(f / 10.0) for f in range(8, 41)]
        assert voltages == sorted(voltages)

    def test_voltage_clamped_at_curve_ends(self):
        assert CORE_VF_CURVE.voltage_for_frequency(0.1) == CORE_VF_CURVE.min_voltage_v
        assert CORE_VF_CURVE.voltage_for_frequency(10.0) == CORE_VF_CURVE.max_voltage_v

    def test_frequency_for_voltage_inverts_voltage_for_frequency(self):
        for frequency in (1.0, 2.0, 3.0):
            voltage = CORE_VF_CURVE.voltage_for_frequency(frequency)
            assert CORE_VF_CURVE.frequency_for_voltage(voltage) == pytest.approx(frequency, rel=1e-6)


class TestSustainedOperatingPoints:
    def test_4w_sustains_the_paper_frequency(self):
        # Sec. 7.1: the 4 W SPEC evaluation runs at the maximum allowed 0.9 GHz.
        assert sustained_core_frequency_ghz(4.0) == pytest.approx(0.9)

    def test_sustained_frequency_monotone_in_tdp(self):
        tdps = (4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0)
        core = [sustained_core_frequency_ghz(t) for t in tdps]
        gfx = [sustained_gfx_frequency_ghz(t) for t in tdps]
        assert core == sorted(core)
        assert gfx == sorted(gfx)

    def test_turbo_headroom_exists_at_every_tdp(self):
        for tdp in (4.0, 18.0, 50.0):
            assert sustained_core_frequency_ghz(tdp) < CORE_VF_CURVE.max_frequency_ghz
            assert sustained_gfx_frequency_ghz(tdp) < GFX_VF_CURVE.max_frequency_ghz

    def test_compute_voltage_within_operational_range(self):
        for tdp in (4.0, 10.0, 25.0, 50.0):
            assert 0.55 <= compute_voltage_for_tdp(tdp) <= 1.1

    def test_gfx_voltage_depends_on_workload_type(self):
        graphics = gfx_voltage_for_tdp(50.0, WorkloadType.GRAPHICS)
        cpu = gfx_voltage_for_tdp(50.0, WorkloadType.CPU_MULTI_THREAD)
        assert graphics > cpu
