"""Board-area and bill-of-materials (BOM) models (Sec. 3.2, Fig. 8d-e).

The board area and cost of an off-chip regulator are driven primarily by the
maximum current (Iccmax) it must be designed for.  Platforms with TDPs up to
18 W integrate their regulators into a power-management IC (PMIC); higher-TDP
platforms use discrete voltage-regulator modules (VRMs), which carry a larger
per-rail overhead.

* :mod:`repro.cost.iccmax` -- aggregates each PDN's off-chip Iccmax
  requirements.
* :mod:`repro.cost.bom` -- the Iccmax -> cost mapping and PDN BOM comparison.
* :mod:`repro.cost.board_area` -- the Iccmax -> board-area mapping and PDN
  area comparison.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.cost.iccmax import pdn_iccmax_summary, total_iccmax_a
    from repro.cost.bom import BomModel, BomEstimate
    from repro.cost.board_area import BoardAreaModel, BoardAreaEstimate

__all__ = [
    "pdn_iccmax_summary",
    "total_iccmax_a",
    "BomModel",
    "BomEstimate",
    "BoardAreaModel",
    "BoardAreaEstimate",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cost.iccmax": ("pdn_iccmax_summary", "total_iccmax_a"),
    "repro.cost.bom": ("BomModel", "BomEstimate"),
    "repro.cost.board_area": ("BoardAreaModel", "BoardAreaEstimate"),
})
