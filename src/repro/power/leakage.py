"""Leakage and dynamic power scaling with supply voltage.

Sec. 3.1 of the paper: when a domain's supply voltage is raised from its
nominal value ``V_NOM`` to ``V_NOM + V_GB`` (to cover a tolerance band, a
power-gate drop or a load-line droop), the dynamic and leakage components of
its power scale differently:

* dynamic power scales with the square of the voltage ratio, and
* leakage power scales approximately polynomially with the voltage ratio,
  with an exponent of ~2.8 measured on a Skylake part (Sec. 3.1).

Leakage also depends exponentially on temperature, but the paper's models
assume a fixed junction temperature per scenario (80/100 deg C for the
performance studies, 50 deg C for battery-life studies).  No temperature term
is modelled here: each domain's leakage fraction already holds at its
scenario's temperature.
"""

from __future__ import annotations

from repro.util.errors import ModelDomainError
from repro.util.validation import require_fraction, require_positive

#: Voltage exponent of the leakage power fit (Sec. 3.1, delta ~= 2.8).
LEAKAGE_VOLTAGE_EXPONENT = 2.8


def scale_power_with_voltage(
    nominal_power_w: float,
    nominal_voltage_v: float,
    guardband_v: float,
    leakage_fraction: float,
    leakage_exponent: float = LEAKAGE_VOLTAGE_EXPONENT,
) -> float:
    """Scale a domain's power for a supply-voltage increase (Eq. 2).

    Returns the power drawn when the supply voltage is raised from
    ``nominal_voltage_v`` to ``nominal_voltage_v + guardband_v``::

        P = P_NOM * [ F_L * ((V + Vgb) / V)^delta + (1 - F_L) * ((V + Vgb) / V)^2 ]

    Parameters
    ----------
    nominal_power_w:
        The domain's power at its nominal voltage.
    nominal_voltage_v:
        The nominal supply voltage ``V_NOM``.
    guardband_v:
        The voltage increase ``V_GB`` (tolerance band, power-gate drop, ...).
    leakage_fraction:
        The leakage fraction ``F_L`` of the domain.
    leakage_exponent:
        The polynomial exponent of the leakage fit (default 2.8).
    """
    require_positive(nominal_voltage_v, "nominal_voltage_v")
    require_fraction(leakage_fraction, "leakage_fraction")
    if nominal_power_w < 0:
        raise ModelDomainError(f"nominal_power_w must be >= 0, got {nominal_power_w!r}")
    if guardband_v < 0:
        raise ModelDomainError(f"guardband_v must be >= 0, got {guardband_v!r}")
    ratio = (nominal_voltage_v + guardband_v) / nominal_voltage_v
    leakage_term = leakage_fraction * ratio**leakage_exponent
    dynamic_term = (1.0 - leakage_fraction) * ratio**2
    return nominal_power_w * (leakage_term + dynamic_term)

