"""The two operating modes of FlexWatts' hybrid on-chip regulators.

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

:class:`~repro.core.flexwatts.FlexWattsPdn` models the regulators in each
mode, and :class:`~repro.core.mode_switching.ModeSwitchOverheads` holds the
area the LDO mode adds.
"""

from __future__ import annotations

import enum


class PdnMode(enum.Enum):
    """Operating mode of the FlexWatts hybrid PDN (and of each hybrid VR)."""

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    IVR_MODE = "ivr_mode"
    LDO_MODE = "ldo_mode"
