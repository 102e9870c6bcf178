"""Tests for the domain descriptions and nominal-power curves (Table 1/2)."""

import pytest

from repro.power.domains import (
    COMPUTE_DOMAINS,
    DEFAULT_DOMAINS,
    DomainKind,
    DomainLoad,
    NominalPowerCurves,
    WorkloadType,
    loads_by_kind,
    validate_load_set,
)
from repro.util.errors import ConfigurationError


class TestDomainDescriptions:
    def test_all_six_domains_have_defaults(self):
        assert set(DEFAULT_DOMAINS) == set(DomainKind)

    def test_leakage_fractions_match_paper(self):
        # 45 % for graphics, 22 % elsewhere (Sec. 3.1, after Rusu et al.).
        assert DEFAULT_DOMAINS[DomainKind.GFX].leakage_fraction == pytest.approx(0.45)
        for kind in (DomainKind.CORE0, DomainKind.LLC, DomainKind.SA):
            assert DEFAULT_DOMAINS[kind].leakage_fraction == pytest.approx(0.22)

    def test_compute_domains_exclude_sa_io(self):
        assert DomainKind.SA not in COMPUTE_DOMAINS
        assert DomainKind.IO not in COMPUTE_DOMAINS
        assert DomainKind.GFX in COMPUTE_DOMAINS


class TestDomainLoad:
    def test_effective_power_respects_gating(self):
        active = DomainLoad(DomainKind.CORE0, 2.0, 0.8, 0.22, active=True)
        gated = DomainLoad(DomainKind.CORE0, 2.0, 0.8, 0.22, active=False)
        assert active.effective_power_w == 2.0
        assert gated.effective_power_w == 0.0

    def test_current_is_power_over_voltage(self):
        load = DomainLoad(DomainKind.GFX, 4.0, 0.8, 0.45)
        assert load.current_a == pytest.approx(5.0)

    def test_scaled_load(self):
        load = DomainLoad(DomainKind.LLC, 2.0, 0.7, 0.22)
        assert load.scaled(0.5).nominal_power_w == pytest.approx(1.0)


class TestNominalPowerCurves:
    def test_table2_ranges_at_the_endpoints(self):
        curves = NominalPowerCurves()
        # Cores: 0.6 W - 30 W over the 4 W - 50 W TDP range (Table 2).
        assert 0.4 <= curves.cores_power_w(4.0, WorkloadType.CPU_MULTI_THREAD) <= 1.0
        assert 20.0 <= curves.cores_power_w(50.0, WorkloadType.CPU_MULTI_THREAD) <= 30.0
        # LLC: 0.5 W - 4 W.
        assert curves.llc_power_w(4.0, WorkloadType.CPU_MULTI_THREAD) == pytest.approx(0.5)
        assert curves.llc_power_w(50.0, WorkloadType.CPU_MULTI_THREAD) == pytest.approx(4.0)
        # GFX: 0.58 W - 29.4 W.
        assert 0.4 <= curves.gfx_power_w(4.0, WorkloadType.GRAPHICS) <= 1.0
        assert 20.0 <= curves.gfx_power_w(50.0, WorkloadType.GRAPHICS) <= 29.4

    def test_curves_monotone_in_tdp(self):
        curves = NominalPowerCurves()
        tdps = (4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0)
        cores = [curves.cores_power_w(t, WorkloadType.CPU_MULTI_THREAD) for t in tdps]
        gfx = [curves.gfx_power_w(t, WorkloadType.GRAPHICS) for t in tdps]
        assert cores == sorted(cores)
        assert gfx == sorted(gfx)

    def test_uncore_power_nearly_flat_across_tdps(self):
        curves = NominalPowerCurves()
        sa_low, io_low = curves.uncore_power_w(4.0)
        sa_high, io_high = curves.uncore_power_w(50.0)
        assert sa_high / sa_low < 2.0
        assert io_high / io_low < 2.0

    def test_single_thread_uses_less_core_power_than_multi_thread(self):
        curves = NominalPowerCurves()
        st = curves.cores_power_w(18.0, WorkloadType.CPU_SINGLE_THREAD)
        mt = curves.cores_power_w(18.0, WorkloadType.CPU_MULTI_THREAD)
        assert st < mt

    def test_gfx_idle_during_cpu_workloads(self):
        curves = NominalPowerCurves()
        assert curves.gfx_power_w(18.0, WorkloadType.CPU_MULTI_THREAD) == pytest.approx(
            curves.idle_compute_w
        )


class TestLoadSetHelpers:
    def _full_set(self):
        return [
            DomainLoad(kind, 1.0, 0.8, 0.22) for kind in DomainKind
        ]

    def test_loads_by_kind_rejects_duplicates(self):
        loads = self._full_set() + [DomainLoad(DomainKind.IO, 1.0, 1.0, 0.22)]
        with pytest.raises(ConfigurationError):
            loads_by_kind(loads)

    def test_validate_load_set_requires_all_domains(self):
        with pytest.raises(ConfigurationError):
            validate_load_set(self._full_set()[:-1])
        assert len(validate_load_set(self._full_set())) == 6
