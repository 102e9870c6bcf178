"""Low-dropout (LDO) linear regulator model.

The paper (Sec. 2.2) models an LDO regulator's efficiency as the ratio of the
output to input voltage multiplied by its *current efficiency* (the small
fraction of current consumed by the error amplifier and bias circuits)::

    eta_LDO = (Vout / Vin) * Ie            (Eq. 10)

with ``Ie`` around 99 % in modern designs.  An LDO can also operate in

* *bypass mode*, where the pass device is fully on and the output voltage
  tracks the input voltage (used by the LDO PDN for the domain that sets the
  shared ``V_IN`` rail), and
* *power-gate mode*, where the pass device is off and the domain is
  disconnected (idle domains).

The dual-mode power-gate / LDO circuit of Luria et al. (the building block of
FlexWatts' hybrid regulator) is modelled by the same class.
"""

from __future__ import annotations

import enum

from repro.util.errors import UnsupportedOperatingPointError
from repro.util.validation import require_fraction, require_non_negative
from repro.vr.base import RegulatorOperatingPoint, VoltageRegulator


class LdoMode(enum.Enum):
    """Operating mode of a low-dropout regulator."""

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    #: The regulator actively reduces the input voltage to the requested output.
    REGULATION = "regulation"
    #: The pass device is fully on; output voltage equals input voltage minus
    #: a small resistive drop.  Used when the domain needs the full rail.
    BYPASS = "bypass"
    #: The pass device is off and the domain is disconnected (idle domain).
    POWER_GATE = "power_gate"


class LowDropoutRegulator(VoltageRegulator):
    """Behavioural model of an on-chip LDO regulator / power gate.

    Parameters
    ----------
    name:
        Instance name (e.g. ``"LDO_Core0"``).
    current_efficiency:
        Fraction of the input current that reaches the load (``Ie`` in Eq. 10).
        The paper measures ~99 % (Table 2 quotes 99.1 %).
    dropout_voltage_v:
        Minimum input-output differential the regulator needs to stay in
        regulation.  Below this the regulator behaves as if in bypass.
    bypass_resistance_ohm:
        Series resistance of the fully-on pass device, used in bypass and
        power-gate-style calculations.
    """

    def __init__(
        self,
        name: str = "ldo",
        current_efficiency: float = 0.991,
        dropout_voltage_v: float = 0.02,
        bypass_resistance_ohm: float = 0.0015,
    ):
        self.name = name
        self._current_efficiency = require_fraction(current_efficiency, "current_efficiency")
        self._dropout_voltage_v = require_non_negative(dropout_voltage_v, "dropout_voltage_v")
        self._bypass_resistance_ohm = require_non_negative(
            bypass_resistance_ohm, "bypass_resistance_ohm"
        )
        self._mode = LdoMode.REGULATION

    @property
    def mode(self) -> LdoMode:
        """The regulator's current operating mode."""
        return self._mode

    @property
    def current_efficiency(self) -> float:
        """The regulator's current efficiency ``Ie``."""
        return self._current_efficiency

    @property
    def bypass_resistance_ohm(self) -> float:
        """Series resistance of the fully-on pass device, in ohms."""
        return self._bypass_resistance_ohm

    def set_mode(self, mode: LdoMode) -> None:
        """Select the regulator operating mode."""
        self._mode = mode

    def mode_for(self, point: RegulatorOperatingPoint) -> LdoMode:
        """Return the natural mode for ``point``.

        If the requested output voltage is within the dropout voltage of the
        input rail the regulator cannot regulate and operates in bypass; if the
        load draws no current the regulator acts as a power gate.
        """
        if point.output_current_a == 0.0:
            return LdoMode.POWER_GATE
        if point.input_voltage_v - point.output_voltage_v <= self._dropout_voltage_v:
            return LdoMode.BYPASS
        return LdoMode.REGULATION

    def efficiency(self, point: RegulatorOperatingPoint) -> float:
        """Power-conversion efficiency at ``point`` for the current mode.

        In regulation mode this is Eq. 10.  In bypass mode the only loss is the
        resistive drop across the pass device times the current efficiency.
        """
        if self._mode is LdoMode.POWER_GATE:
            return 0.0
        if point.output_voltage_v > point.input_voltage_v:
            raise UnsupportedOperatingPointError(
                f"{self.name}: cannot regulate {point.output_voltage_v:.3f} V from a "
                f"{point.input_voltage_v:.3f} V input (LDOs only step down)"
            )
        if self._mode is LdoMode.BYPASS:
            drop_v = self._bypass_resistance_ohm * point.output_current_a
            effective_output_v = max(point.input_voltage_v - drop_v, 1e-9)
            return (effective_output_v / point.input_voltage_v) * self._current_efficiency
        return (point.output_voltage_v / point.input_voltage_v) * self._current_efficiency

    def input_power_w(self, point: RegulatorOperatingPoint) -> float:
        """Power drawn from the input rail to deliver ``point``'s output power."""
        if self._mode is LdoMode.POWER_GATE or point.output_power_w == 0.0:
            return 0.0
        return super().input_power_w(point)
