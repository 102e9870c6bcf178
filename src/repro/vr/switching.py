"""Switching (buck) voltage-regulator model.

The paper (Sec. 2.2) describes the step-down switching voltage regulator (SVR)
used both on the motherboard (MBVR PDN, the first-stage ``V_IN`` regulator of
the IVR and LDO PDNs) and, in integrated form, on the processor die (IVR).

A behavioural loss model is used rather than a circuit-level one: the total
loss of a buck converter is decomposed into

* a fixed *quiescent* loss (controller, gate-drive bias) that dominates at
  light load and is responsible for the poor light-load efficiency visible in
  Fig. 3 of the paper,
* a *switching* loss proportional to the input voltage and the load current
  (charging/discharging the bridge FETs every cycle),
* a *conduction* loss proportional to the square of the load current through
  the effective bridge + inductor resistance, and
* a small *regulation* penalty that grows with the conversion ratio
  ``1 - Vout/Vin``, which makes low output voltages slightly less efficient,
  as in the measured curves of Fig. 3.

Multi-phase regulators expose *VR power states* (PS0, PS1, ...): lighter power
states shed phases and skip pulses, which lowers the fixed losses (better at
light load) at the cost of higher conduction losses (worse at heavy load).
The paper measures the ``V_IN`` regulator in PS0/PS1/PS3/PS4.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict

from repro.util.errors import ConfigurationError, UnsupportedOperatingPointError
from repro.util.validation import require_fraction, require_non_negative, require_positive
from repro.vr.base import RegulatorOperatingPoint, VoltageRegulator


class VRPowerState(enum.Enum):
    """Power state of a multi-phase switching regulator.

    ``PS0`` is the full-performance state with all phases active.  Higher
    numbered states progressively shed phases and reduce switching frequency,
    trading heavy-load efficiency for light-load efficiency.  ``PS4`` is a
    near-off state used while the platform is in a deep package C-state.
    """

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    PS0 = 0
    PS1 = 1
    PS2 = 2
    PS3 = 3
    PS4 = 4


@dataclass(frozen=True)
class PhaseConfiguration:
    """Loss coefficients of one regulator power state.

    Attributes
    ----------
    quiescent_w:
        Fixed loss in watts, independent of load.
    switching_w_per_v_a:
        Switching loss coefficient in watts per (input volt x output amp).
    conduction_ohm:
        Effective series resistance of the active phases, in ohms.
    drive_w_per_a:
        Gate-drive / ripple loss that grows linearly with load current.
    """

    quiescent_w: float
    switching_w_per_v_a: float
    conduction_ohm: float
    drive_w_per_a: float

    def __post_init__(self) -> None:
        require_non_negative(self.quiescent_w, "quiescent_w")
        require_non_negative(self.switching_w_per_v_a, "switching_w_per_v_a")
        require_non_negative(self.conduction_ohm, "conduction_ohm")
        require_non_negative(self.drive_w_per_a, "drive_w_per_a")


@dataclass(frozen=True)
class SwitchingRegulatorDesign:
    """Electrical design of a switching regulator.

    Attributes
    ----------
    name:
        Regulator instance name (e.g. ``"V_IN"``, ``"V_Cores"``).
    iccmax_a:
        Maximum current the regulator is electrically designed to support.
        Exceeding this raises :class:`UnsupportedOperatingPointError`; the
        value also drives the board-area and BOM models (Sec. 3.2).
    min_headroom_v:
        Minimum required difference between input and output voltage
        (the paper quotes ~0.6 V of headroom for a 1.8 V input SVR).
    regulation_penalty:
        Fractional efficiency penalty applied per volt of (Vin - Vout)
        conversion drop; captures the duty-cycle dependence seen in Fig. 3.
    max_efficiency:
        Efficiency ceiling; behavioural cap matching the best measured point.
    phase_configs:
        Loss coefficients for each supported VR power state.
    """

    name: str
    iccmax_a: float
    min_headroom_v: float = 0.0
    regulation_penalty: float = 0.0
    max_efficiency: float = 0.95
    phase_configs: Dict[VRPowerState, PhaseConfiguration] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_positive(self.iccmax_a, "iccmax_a")
        require_non_negative(self.min_headroom_v, "min_headroom_v")
        require_non_negative(self.regulation_penalty, "regulation_penalty")
        require_fraction(self.max_efficiency, "max_efficiency")
        if not self.phase_configs:
            raise ConfigurationError(
                f"regulator {self.name!r} needs at least one phase configuration"
            )
        if VRPowerState.PS0 not in self.phase_configs:
            raise ConfigurationError(
                f"regulator {self.name!r} must define the PS0 phase configuration"
            )


class SwitchingRegulator(VoltageRegulator):
    """Behavioural model of a step-down switching (buck) regulator.

    Parameters
    ----------
    design:
        The regulator's electrical design (loss coefficients, Iccmax).
    power_state:
        Initial VR power state; defaults to PS0 (all phases active).
    """

    def __init__(
        self,
        design: SwitchingRegulatorDesign,
        power_state: VRPowerState = VRPowerState.PS0,
    ):
        self._design = design
        self.name = design.name
        self._power_state = power_state
        if power_state not in design.phase_configs:
            raise ConfigurationError(
                f"regulator {design.name!r} does not define power state {power_state.name}"
            )

    @property
    def design(self) -> SwitchingRegulatorDesign:
        """The regulator's electrical design."""
        return self._design

    @property
    def power_state(self) -> VRPowerState:
        """The regulator's current power state."""
        return self._power_state

    @property
    def iccmax_a(self) -> float:
        """Maximum supported load current in amps."""
        return self._design.iccmax_a

    def set_power_state(self, power_state: VRPowerState) -> None:
        """Move the regulator to a different power state.

        The platform power-management unit selects the regulator power state
        based on the package C-state; lighter regulator states are used when
        the processor is mostly idle.
        """
        if power_state not in self._design.phase_configs:
            raise ConfigurationError(
                f"regulator {self.name!r} does not define power state {power_state.name}"
            )
        self._power_state = power_state

    def best_power_state_for(self, point: RegulatorOperatingPoint) -> VRPowerState:
        """Return the defined power state with the highest efficiency at ``point``."""
        best_state = self._power_state
        best_eta = 0.0
        for state in self._design.phase_configs:
            eta = self._efficiency_in_state(point, state)
            if eta > best_eta:
                best_eta = eta
                best_state = state
        return best_state

    def loss_breakdown_w(self, point: RegulatorOperatingPoint) -> Dict[str, float]:
        """Return the loss decomposition at ``point`` in watts.

        Keys are ``"quiescent"``, ``"switching"``, ``"conduction"``, ``"drive"``
        and ``"regulation"``.
        """
        self._check_point(point)
        config = self._design.phase_configs[self._power_state]
        current = point.output_current_a
        conversion_drop_v = max(0.0, point.input_voltage_v - point.output_voltage_v)
        return {
            "quiescent": config.quiescent_w,
            "switching": config.switching_w_per_v_a * point.input_voltage_v * current,
            "conduction": config.conduction_ohm * current * current,
            "drive": config.drive_w_per_a * current,
            "regulation": self._design.regulation_penalty
            * conversion_drop_v
            * point.output_power_w,
        }

    def efficiency(self, point: RegulatorOperatingPoint) -> float:
        """Power-conversion efficiency at ``point``."""
        return self._efficiency_in_state(point, self._power_state)

    def idle_power_w(self) -> float:
        """Quiescent power of the current power state."""
        return self._design.phase_configs[self._power_state].quiescent_w

    def _efficiency_in_state(
        self, point: RegulatorOperatingPoint, state: VRPowerState
    ) -> float:
        self._check_point(point)
        output_power = point.output_power_w
        if output_power == 0.0:
            return 0.0
        config = self._design.phase_configs[state]
        current = point.output_current_a
        conversion_drop_v = max(0.0, point.input_voltage_v - point.output_voltage_v)
        loss = (
            config.quiescent_w
            + config.switching_w_per_v_a * point.input_voltage_v * current
            + config.conduction_ohm * current * current
            + config.drive_w_per_a * current
            + self._design.regulation_penalty * conversion_drop_v * output_power
        )
        efficiency = output_power / (output_power + loss)
        return min(efficiency, self._design.max_efficiency)

    def _check_point(self, point: RegulatorOperatingPoint) -> None:
        design = self._design
        if point.output_current_a > design.iccmax_a:
            raise UnsupportedOperatingPointError(
                f"{self.name}: load current {point.output_current_a:.2f} A exceeds "
                f"Iccmax of {design.iccmax_a:.2f} A"
            )
        headroom = point.input_voltage_v - point.output_voltage_v
        if headroom < design.min_headroom_v:
            raise UnsupportedOperatingPointError(
                f"{self.name}: voltage headroom {headroom:.3f} V below the minimum "
                f"of {design.min_headroom_v:.3f} V required by a switching regulator"
            )
