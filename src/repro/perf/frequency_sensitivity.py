"""Frequency sensitivity: the power cost of a 1 % frequency increase (Fig. 2a).

The paper builds power-frequency curves empirically by sweeping the CPU
(graphics) frequency in 100 MHz (50 MHz) steps on a Skylake system and
measuring the power delta per step.  Here the same curves are derived
analytically from the library's own power model:

* dynamic power scales with ``V^2 * f`` along the domain's voltage/frequency
  curve, and
* leakage power scales with ``V^delta`` (delta ~= 2.8, Sec. 3.1),

so the extra power for a small frequency increase around the sustained
operating point of a TDP is the derivative of that expression, evaluated with
the Table-2 nominal powers.  The resulting numbers match Fig. 2(a)'s
qualitative statement: ~9 mW per 1 % at a 4 W TDP, growing to hundreds of
milliwatts at 50 W.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.domains import DomainKind, NominalPowerCurves, WorkloadType
from repro.power.leakage import LEAKAGE_VOLTAGE_EXPONENT
from repro.soc.dvfs import (
    CORE_VF_CURVE,
    GFX_VF_CURVE,
    VoltageFrequencyCurve,
    sustained_core_frequency_ghz,
    sustained_gfx_frequency_ghz,
)
from repro.util.errors import ModelDomainError
from repro.util.validation import require_positive


@dataclass(frozen=True)
class FrequencySensitivityModel:
    """Power cost of small frequency increases around a TDP's operating point.

    Parameters
    ----------
    curves:
        Nominal-power-versus-TDP curves (Table 2 defaults).
    leakage_fraction:
        Leakage fraction of the domain being scaled.
    leakage_exponent:
        Voltage exponent of leakage (2.8).
    """

    curves: NominalPowerCurves = None
    leakage_fraction: float = 0.22
    leakage_exponent: float = LEAKAGE_VOLTAGE_EXPONENT

    def __post_init__(self) -> None:
        if self.curves is None:
            object.__setattr__(self, "curves", NominalPowerCurves())

    # ------------------------------------------------------------------ #
    # Core / graphics specialisations
    # ------------------------------------------------------------------ #
    def cpu_power_for_one_percent_w(self, tdp_w: float) -> float:
        """Extra power to raise the CPU core frequency by 1 % at ``tdp_w``."""
        require_positive(tdp_w, "tdp_w")
        nominal_power_w = self.curves.cores_power_w(tdp_w, WorkloadType.CPU_MULTI_THREAD)
        frequency_ghz = sustained_core_frequency_ghz(tdp_w)
        return self._power_delta_w(nominal_power_w, frequency_ghz, CORE_VF_CURVE, 0.01)

    def gfx_power_for_one_percent_w(self, tdp_w: float) -> float:
        """Extra power to raise the graphics frequency by 1 % at ``tdp_w``."""
        require_positive(tdp_w, "tdp_w")
        nominal_power_w = self.curves.gfx_power_w(tdp_w, WorkloadType.GRAPHICS)
        frequency_ghz = sustained_gfx_frequency_ghz(tdp_w)
        return self._power_delta_w(
            nominal_power_w, frequency_ghz, GFX_VF_CURVE, 0.01, leakage_fraction=0.45
        )

    def power_for_frequency_increase_w(
        self, tdp_w: float, frequency_increase_fraction: float, domain: DomainKind
    ) -> float:
        """Extra power to raise ``domain``'s frequency by a given fraction."""
        require_positive(tdp_w, "tdp_w")
        if frequency_increase_fraction < 0.0:
            raise ModelDomainError("frequency_increase_fraction must be >= 0")
        if domain is DomainKind.GFX:
            nominal_power_w = self.curves.gfx_power_w(tdp_w, WorkloadType.GRAPHICS)
            frequency_ghz = sustained_gfx_frequency_ghz(tdp_w)
            return self._power_delta_w(
                nominal_power_w,
                frequency_ghz,
                GFX_VF_CURVE,
                frequency_increase_fraction,
                leakage_fraction=0.45,
            )
        nominal_power_w = self.curves.cores_power_w(tdp_w, WorkloadType.CPU_MULTI_THREAD)
        frequency_ghz = sustained_core_frequency_ghz(tdp_w)
        return self._power_delta_w(
            nominal_power_w, frequency_ghz, CORE_VF_CURVE, frequency_increase_fraction
        )

    def frequency_increase_for_power(
        self, tdp_w: float, extra_power_w: float, domain: DomainKind = DomainKind.CORE0
    ) -> float:
        """Fractional frequency increase affordable with ``extra_power_w``.

        Solved by bisection over the (monotone) power-delta function, capped at
        the domain's maximum frequency.
        """
        require_positive(tdp_w, "tdp_w")
        if extra_power_w <= 0.0:
            return 0.0
        vf_curve = GFX_VF_CURVE if domain is DomainKind.GFX else CORE_VF_CURVE
        base_frequency = (
            sustained_gfx_frequency_ghz(tdp_w)
            if domain is DomainKind.GFX
            else sustained_core_frequency_ghz(tdp_w)
        )
        max_fraction = vf_curve.max_frequency_ghz / base_frequency - 1.0
        if max_fraction <= 0.0:
            return 0.0
        low, high = 0.0, max_fraction
        if self.power_for_frequency_increase_w(tdp_w, max_fraction, domain) <= extra_power_w:
            return max_fraction
        for _ in range(60):
            mid = 0.5 * (low + high)
            if self.power_for_frequency_increase_w(tdp_w, mid, domain) <= extra_power_w:
                low = mid
            else:
                high = mid
        return low

    # ------------------------------------------------------------------ #
    # Internal physics
    # ------------------------------------------------------------------ #
    def _power_delta_w(
        self,
        nominal_power_w: float,
        frequency_ghz: float,
        vf_curve: VoltageFrequencyCurve,
        frequency_increase_fraction: float,
        leakage_fraction: float = None,
    ) -> float:
        if leakage_fraction is None:
            leakage_fraction = self.leakage_fraction
        baseline_voltage = vf_curve.voltage_for_frequency(frequency_ghz)
        target_frequency = frequency_ghz * (1.0 + frequency_increase_fraction)
        target_voltage = vf_curve.voltage_for_frequency(target_frequency)
        voltage_ratio = target_voltage / baseline_voltage
        frequency_ratio = target_frequency / frequency_ghz
        dynamic_fraction = 1.0 - leakage_fraction
        dynamic_scale = voltage_ratio**2 * frequency_ratio
        leakage_scale = voltage_ratio**self.leakage_exponent
        scaled_power = nominal_power_w * (
            dynamic_fraction * dynamic_scale + leakage_fraction * leakage_scale
        )
        return scaled_power - nominal_power_w
