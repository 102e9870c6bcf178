"""Tests for the Table 2 parameter set (experiment E-TAB2)."""

import pytest

from repro.power.domains import DomainKind
from repro.power.parameters import PdnTechnologyParameters, default_parameters
from repro.util.errors import ConfigurationError


class TestTable2Defaults:
    def test_load_line_impedances_match_table2(self):
        params = default_parameters()
        # IVR: IN = 1 mOhm.
        assert params.ivr_input_loadline_ohm == pytest.approx(1.0e-3)
        # MBVR: cores, GFX, SA, IO = 2.5, 2.5, 7, 4 mOhm.
        assert params.mbvr_loadline_ohm[DomainKind.CORE0] == pytest.approx(2.5e-3)
        assert params.mbvr_loadline_ohm[DomainKind.GFX] == pytest.approx(2.5e-3)
        assert params.mbvr_loadline_ohm[DomainKind.SA] == pytest.approx(7.0e-3)
        assert params.mbvr_loadline_ohm[DomainKind.IO] == pytest.approx(4.0e-3)
        # LDO: IN, SA, IO = 1.25, 7, 4 mOhm.
        assert params.ldo_input_loadline_ohm == pytest.approx(1.25e-3)
        assert params.uncore_loadline_ohm[DomainKind.SA] == pytest.approx(7.0e-3)
        assert params.uncore_loadline_ohm[DomainKind.IO] == pytest.approx(4.0e-3)

    def test_power_gate_impedances_in_table2_range(self):
        params = default_parameters()
        for impedance in params.power_gate_impedance_ohm.values():
            assert 1.0e-3 <= impedance <= 2.0e-3

    def test_supply_and_input_voltages(self):
        params = default_parameters()
        assert 7.2 <= params.supply_voltage_v <= 20.0
        assert params.ivr_input_voltage_v == pytest.approx(1.8)

    def test_leakage_exponent(self):
        assert default_parameters().leakage_exponent == pytest.approx(2.8)

    def test_ldo_current_efficiency(self):
        assert default_parameters().ldo_current_efficiency == pytest.approx(0.991)

    def test_flexwatts_loadline_scale_above_one(self):
        assert default_parameters().flexwatts_loadline_scale > 1.0


class TestOverrides:
    def test_with_overrides_returns_new_object(self):
        params = default_parameters()
        modified = params.with_overrides(ivr_tolerance_band_v=0.022)
        assert modified is not params
        assert modified.ivr_tolerance_band_v == pytest.approx(0.022)
        assert params.ivr_tolerance_band_v == pytest.approx(0.020)

    def test_invalid_override_rejected(self):
        with pytest.raises(ConfigurationError):
            default_parameters().with_overrides(supply_voltage_v=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("supply_voltage_v", float("inf"), "supply_voltage_v must be finite, got inf"),
            ("ivr_tolerance_band_v", float("inf"), "ivr_tolerance_band_v must be finite, got inf"),
            ("mbvr_tolerance_band_v", float("nan"), "mbvr_tolerance_band_v must be >= 0, got nan"),
        ],
    )
    def test_non_finite_override_names_the_field(self, field, value, message):
        with pytest.raises(ConfigurationError) as raised:
            default_parameters().with_overrides(**{field: value})
        assert str(raised.value) == message

    def test_invalid_current_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            PdnTechnologyParameters(ldo_current_efficiency=1.5)


class TestPerDomainOverrides:
    """Per-domain dict fields are checked at the boundary, naming the field."""

    def test_partial_mbvr_loadline_names_missing_domains(self):
        with pytest.raises(ConfigurationError) as error:
            default_parameters().with_overrides(mbvr_loadline_ohm={DomainKind.CORE0: 1e-3})
        message = str(error.value)
        assert message.startswith("mbvr_loadline_ohm: missing domains")
        for domain in ("gfx", "sa", "io"):
            assert domain in message

    def test_missing_power_gate_domain_rejected(self):
        gates = dict(default_parameters().power_gate_impedance_ohm)
        del gates[DomainKind.LLC]
        with pytest.raises(ConfigurationError, match="power_gate_impedance_ohm: missing domains llc"):
            default_parameters().with_overrides(power_gate_impedance_ohm=gates)

    def test_extra_key_rejected(self):
        uncore = {DomainKind.SA: 7e-3, DomainKind.IO: 4e-3, DomainKind.GFX: 1e-3}
        with pytest.raises(ConfigurationError, match="uncore_loadline_ohm: unexpected keys gfx"):
            default_parameters().with_overrides(uncore_loadline_ohm=uncore)
        loadlines = {**default_parameters().mbvr_loadline_ohm, "core0": 1e-3}
        with pytest.raises(ConfigurationError, match="mbvr_loadline_ohm: unexpected keys 'core0'"):
            default_parameters().with_overrides(mbvr_loadline_ohm=loadlines)

    @pytest.mark.parametrize("bad", [-1e-3, float("nan"), None, True])
    def test_negative_or_non_numeric_value_names_field_and_domain(self, bad):
        gates = {**default_parameters().power_gate_impedance_ohm, DomainKind.GFX: bad}
        with pytest.raises(ConfigurationError, match="power_gate_impedance_ohm/gfx: must be a number >= 0"):
            default_parameters().with_overrides(power_gate_impedance_ohm=gates)

    def test_infinite_value_names_field_and_domain(self):
        gates = {**default_parameters().power_gate_impedance_ohm, DomainKind.GFX: float("inf")}
        with pytest.raises(ConfigurationError, match="power_gate_impedance_ohm/gfx: must be finite"):
            default_parameters().with_overrides(power_gate_impedance_ohm=gates)

    def test_rail_heads_suffice_for_mbvr_and_zero_is_allowed(self):
        heads = {DomainKind.CORE0: 0.0, DomainKind.GFX: 2e-3, DomainKind.SA: 7e-3, DomainKind.IO: 4e-3}
        params = default_parameters().with_overrides(mbvr_loadline_ohm=heads)
        assert params.mbvr_loadline_ohm == heads
