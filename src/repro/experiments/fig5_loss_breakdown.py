"""Experiment E-FIG5: PDN power-conversion loss breakdown (Fig. 5).

Fig. 5 decomposes the power-conversion loss of the IVR, MBVR and LDO PDNs at
4 W, 18 W and 50 W for a CPU-intensive workload with AR = 56 %, into VR
inefficiencies, conduction (I^2 R) losses on the compute and uncore paths, and
other losses, and overlays the (IVR-normalised) chip input current and the
load-line impedance.

The qualitative takeaways the reproduction must preserve:

* VR inefficiency dominates at 4 W and is largest for the IVR PDN (two-stage
  conversion);
* the MBVR/LDO compute conduction losses grow much faster with TDP than the
  IVR PDN's because their chip input current is ~2x higher and their
  load-lines are 2.5x / 1.3x higher.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.reporting import format_table
from repro.pdn.base import OperatingConditions
from repro.power.domains import WorkloadType
from repro.power.parameters import default_parameters

#: The TDPs of the Fig. 5 bars.
FIG5_TDPS_W: Sequence[float] = (4.0, 18.0, 50.0)

#: The application ratio used by Fig. 5.
FIG5_APPLICATION_RATIO = 0.56

#: The PDNs compared by Fig. 5.
FIG5_PDNS: Sequence[str] = ("IVR", "MBVR", "LDO")


def _compute_loadline_ohm(pdn_name: str) -> float:
    """Effective compute-rail load-line of each PDN (the Fig. 5 line plot)."""
    params = default_parameters()
    if pdn_name == "IVR":
        return params.ivr_input_loadline_ohm
    if pdn_name == "LDO":
        return params.ldo_input_loadline_ohm
    from repro.power.domains import DomainKind

    return params.mbvr_loadline_ohm[DomainKind.CORE0]


def loss_breakdown(
    tdps_w: Sequence[float] = FIG5_TDPS_W,
    application_ratio: float = FIG5_APPLICATION_RATIO,
    pdn_names: Sequence[str] = FIG5_PDNS,
    spot: Optional[PdnSpot] = None,
) -> List[Dict[str, float]]:
    """Loss breakdown (fractions of supply power) per PDN per TDP.

    Every point is evaluated once, in one :meth:`PdnSpot.evaluate_units`
    batch through the (optionally shared) :class:`PdnSpot` cache, so the
    operating points this figure shares with the Fig. 4/Fig. 8 grids are not
    recomputed.
    """
    if spot is None:
        spot = PdnSpot(
            pdn_names=list(pdn_names),
            baseline_name="IVR" if "IVR" in pdn_names else pdn_names[0],
        )
    points = [(pdn_name, tdp_w) for pdn_name in pdn_names for tdp_w in tdps_w]
    evaluations = spot.evaluate_units(
        (
            pdn_name,
            OperatingConditions.for_active_workload(
                tdp_w, application_ratio, WorkloadType.CPU_MULTI_THREAD
            ),
            (),
        )
        for pdn_name, tdp_w in points
    )
    records: List[Dict[str, float]] = []
    ivr_current_by_tdp: Dict[float, float] = {}
    for (pdn_name, tdp_w), evaluation in zip(points, evaluations):
        fractions = evaluation.breakdown.as_fractions_of(evaluation.supply_power_w)
        if pdn_name == "IVR":
            ivr_current_by_tdp[tdp_w] = evaluation.chip_input_current_a
        records.append(
            {
                "pdn": pdn_name,
                "tdp_w": tdp_w,
                "vr_inefficiency": fractions["vr_inefficiency"],
                "conduction_compute": fractions["conduction_compute"],
                "conduction_uncore": fractions["conduction_uncore"],
                "other": fractions["other"],
                "total_loss_fraction": evaluation.loss_fraction,
                "chip_input_current_a": evaluation.chip_input_current_a,
                "compute_loadline_mohm": _compute_loadline_ohm(pdn_name) * 1e3,
            }
        )
    # Normalise the chip input current to the IVR PDN (the Fig. 5 line plot).
    for record in records:
        reference = ivr_current_by_tdp.get(record["tdp_w"], 0.0)
        record["normalised_input_current"] = (
            record["chip_input_current_a"] / reference if reference > 0.0 else 0.0
        )
    return records


def format_figure5(
    records: List[Dict[str, float]] = None,
    spot: Optional[PdnSpot] = None,
) -> str:
    """Render the Fig. 5 loss-breakdown table."""
    records = records if records is not None else loss_breakdown(spot=spot)
    rows = [
        [
            r["pdn"],
            r["tdp_w"],
            r["vr_inefficiency"],
            r["conduction_compute"],
            r["conduction_uncore"],
            r["other"],
            r["total_loss_fraction"],
            r["normalised_input_current"],
            r["compute_loadline_mohm"],
        ]
        for r in records
    ]
    return format_table(
        [
            "PDN",
            "TDP (W)",
            "VR ineff.",
            "I2R compute",
            "I2R SA+IO",
            "other",
            "total loss",
            "Iin (norm.)",
            "RLL (mOhm)",
        ],
        rows,
        title="Fig. 5 - PDN power-conversion loss breakdown (CPU workload, AR=56%)",
    )
