"""FlexWatts' hybrid on-chip voltage regulator.

Sec. 6 of the paper: each hybrid regulator extends a baseline on-chip IVR by
also implementing an LDO regulator out of the IVR's existing resources -- in
particular the high-side (HS) NMOS power switch, following the Intel dual-mode
power-gate/LDO circuit of Luria et al.  The two modes share the HS switch, the
package/die decoupling capacitors, the routing resources and the off-chip
``V_IN`` regulator, which is what keeps FlexWatts' cost and area comparable to
the IVR PDN.

* In **IVR-Mode** the regulator behaves as a buck IVR: ``V_IN`` is ~1.8 V and
  the regulator steps it down to the domain voltage.
* In **LDO-Mode** the regulator behaves as an LDO: ``V_IN`` carries the
  maximum domain voltage and the regulator drops it linearly (or bypasses it,
  or acts as a power gate for an idle domain).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.util.errors import UnsupportedOperatingPointError
from repro.vr.base import RegulatorOperatingPoint, VoltageRegulator
from repro.vr.efficiency_curves import default_ivr, default_ldo
from repro.vr.integrated import IntegratedVoltageRegulator
from repro.vr.ldo import LowDropoutRegulator


class PdnMode(enum.Enum):
    """Operating mode of the FlexWatts hybrid PDN (and of each hybrid VR)."""

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    IVR_MODE = "ivr_mode"
    LDO_MODE = "ldo_mode"


class HybridVoltageRegulator(VoltageRegulator):
    """A dual-mode on-chip regulator sharing resources between IVR and LDO.

    Parameters
    ----------
    name:
        Instance name (e.g. ``"HVR_Core0"``).
    ivr:
        The integrated-regulator personality; built with the default Table 2
        design when omitted.
    ldo:
        The LDO personality; built with the default design when omitted.
    mode:
        Initial operating mode.
    """

    #: Additional die area needed to add the LDO mode to an existing IVR
    #: (Sec. 6: ~0.041 mm^2 at 14 nm, reusing the HS power switch).
    AREA_OVERHEAD_MM2 = 0.041

    def __init__(
        self,
        name: str = "hybrid_vr",
        ivr: Optional[IntegratedVoltageRegulator] = None,
        ldo: Optional[LowDropoutRegulator] = None,
        mode: PdnMode = PdnMode.IVR_MODE,
    ):
        self.name = name
        self._ivr = ivr if ivr is not None else default_ivr(f"{name}.ivr")
        self._ldo = ldo if ldo is not None else default_ldo(f"{name}.ldo")
        self._mode = mode

    @property
    def mode(self) -> PdnMode:
        """The regulator's current operating mode."""
        return self._mode

    @property
    def ivr(self) -> IntegratedVoltageRegulator:
        """The IVR personality of the hybrid regulator."""
        return self._ivr

    @property
    def ldo(self) -> LowDropoutRegulator:
        """The LDO personality of the hybrid regulator."""
        return self._ldo

    def set_mode(self, mode: PdnMode) -> None:
        """Reconfigure the regulator for ``mode``.

        In hardware this happens only while the compute domains are idle (the
        mode-switch flow of Sec. 6); the timing is enforced by
        :class:`repro.core.mode_switching.ModeSwitchController`, not here.
        """
        self._mode = mode

    def efficiency(self, point: RegulatorOperatingPoint) -> float:
        """Power-conversion efficiency of the active personality at ``point``."""
        if self._mode is PdnMode.IVR_MODE:
            return self._ivr.efficiency(point)
        self._ldo.set_mode(self._ldo.mode_for(point))
        return self._ldo.efficiency(point)

    def input_power_w(self, point: RegulatorOperatingPoint) -> float:
        """Power drawn from ``V_IN`` to deliver ``point``'s output power."""
        if self._mode is PdnMode.IVR_MODE:
            return self._ivr.input_power_w(point)
        self._ldo.set_mode(self._ldo.mode_for(point))
        return self._ldo.input_power_w(point)

    def required_input_voltage_v(self, output_voltage_v: float) -> float:
        """The ``V_IN`` level this regulator needs to produce ``output_voltage_v``.

        In IVR-Mode the shared rail stays at the buck input voltage (~1.8 V);
        in LDO-Mode it must be at least the requested output voltage.
        """
        if output_voltage_v <= 0.0:
            raise UnsupportedOperatingPointError(
                f"{self.name}: output voltage must be positive, got {output_voltage_v!r}"
            )
        if self._mode is PdnMode.IVR_MODE:
            return 1.8
        return output_voltage_v

    def idle_power_w(self) -> float:
        """Quiescent power of the active personality with an idle load."""
        if self._mode is PdnMode.IVR_MODE:
            return self._ivr.idle_power_w()
        return 0.0
