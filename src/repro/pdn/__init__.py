"""PDN models: the core of the PDNspot framework.

Each model implements the end-to-end power-conversion-efficiency (ETEE)
calculation of Sec. 3.1 of the paper for one PDN architecture:

* :class:`~repro.pdn.ivr.IvrPdn` -- integrated voltage regulators
  (two-stage: board ``V_IN`` regulator + six on-chip IVRs), the
  state-of-the-art baseline the paper compares against.
* :class:`~repro.pdn.mbvr.MbvrPdn` -- motherboard voltage regulators
  (one-stage: four board regulators + on-chip power gates).
* :class:`~repro.pdn.ldo.LdoPdn` -- board regulators for SA/IO plus a shared
  ``V_IN`` board regulator feeding on-chip LDO regulators for the compute
  domains (AMD-Zen-style).
* :class:`~repro.pdn.imbvr.IMbvrPdn` -- the Intel Skylake-X-style hybrid that
  uses board regulators for SA/IO and IVRs for the compute domains.

The FlexWatts PDN itself lives in :mod:`repro.core` because it is the paper's
contribution rather than a baseline.

All models share the same interface
(:class:`~repro.pdn.base.PowerDeliveryNetwork`) and produce a
:class:`~repro.pdn.base.PdnEvaluation` containing the total power drawn from
the platform supply, the ETEE, and the loss breakdown of Fig. 5.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.pdn.base import OperatingConditions, PdnEvaluation, PowerDeliveryNetwork
    from repro.pdn.losses import LossBreakdown
    from repro.pdn.ivr import IvrPdn
    from repro.pdn.mbvr import MbvrPdn
    from repro.pdn.ldo import LdoPdn
    from repro.pdn.imbvr import IMbvrPdn
    from repro.pdn.registry import available_pdns, build_pdn

__all__ = [
    "PowerDeliveryNetwork",
    "OperatingConditions",
    "PdnEvaluation",
    "LossBreakdown",
    "IvrPdn",
    "MbvrPdn",
    "LdoPdn",
    "IMbvrPdn",
    "available_pdns",
    "build_pdn",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.pdn.base": ("OperatingConditions", "PdnEvaluation", "PowerDeliveryNetwork"),
    "repro.pdn.losses": ("LossBreakdown",),
    "repro.pdn.ivr": ("IvrPdn",),
    "repro.pdn.mbvr": ("MbvrPdn",),
    "repro.pdn.ldo": ("LdoPdn",),
    "repro.pdn.imbvr": ("IMbvrPdn",),
    "repro.pdn.registry": ("available_pdns", "build_pdn"),
})
