"""Voltage-regulator models.

This package models the regulator types that appear in the three
commonly-used client-processor PDNs described by the paper (Sec. 2.2):

* :class:`~repro.vr.switching.SwitchingRegulator` -- a step-down switching
  regulator (buck converter).  Used on the motherboard (first-stage ``V_IN``
  and per-domain MBVR regulators) and, in integrated form, as the on-chip IVR.
* :class:`~repro.vr.ldo.LowDropoutRegulator` -- a linear low-dropout
  regulator whose efficiency is approximately ``Vout / Vin`` times its current
  efficiency, with a bypass mode and a power-gate mode.

Supporting models:

* :class:`~repro.vr.load_line.LoadLine` -- the load-line / adaptive voltage
  positioning model ``Vcc = Vin - Vtob - Rll * Icc`` (Sec. 2.4) and the
  guardband equations (Eq. 3 and Eq. 7).
* :mod:`repro.vr.efficiency_curves` -- factory functions that build the
  default efficiency surfaces of Table 2 / Fig. 3.

Tolerance bands and power gates are not regulator objects: they are
parameters of :class:`~repro.power.parameters.PdnTechnologyParameters`
(``*_tolerance_band_v``, ``power_gate_impedance_ohm``) that the PDN models
apply through :mod:`repro.power.guardband`.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.vr.base import RegulatorOperatingPoint, VoltageRegulator
    from repro.vr.switching import SwitchingRegulator, SwitchingRegulatorDesign, VRPowerState
    from repro.vr.integrated import IntegratedVoltageRegulator
    from repro.vr.ldo import LdoMode, LowDropoutRegulator
    from repro.vr.load_line import LoadLine
    from repro.vr.efficiency_curves import default_board_vr, default_input_vr, default_ivr

__all__ = [
    "VoltageRegulator",
    "RegulatorOperatingPoint",
    "SwitchingRegulator",
    "SwitchingRegulatorDesign",
    "VRPowerState",
    "IntegratedVoltageRegulator",
    "LowDropoutRegulator",
    "LdoMode",
    "LoadLine",
    "default_board_vr",
    "default_input_vr",
    "default_ivr",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.vr.base": ("RegulatorOperatingPoint", "VoltageRegulator"),
    "repro.vr.switching": ("SwitchingRegulator", "SwitchingRegulatorDesign", "VRPowerState"),
    "repro.vr.integrated": ("IntegratedVoltageRegulator",),
    "repro.vr.ldo": ("LdoMode", "LowDropoutRegulator"),
    "repro.vr.load_line": ("LoadLine",),
    "repro.vr.efficiency_curves": ("default_board_vr", "default_input_vr", "default_ivr"),
})
