"""Experiment E-FIG4: the PDNspot validation grid (Fig. 4a-j).

Fig. 4 shows, for the three commonly-used PDNs, measured versus predicted ETEE
across application ratios (40--80 %) for single-threaded, multi-programmed and
graphics traces at 4 W, 18 W and 50 W TDPs (panels a-i), plus the battery-life
power states C0_MIN and C2--C8 (panel j).  The paper reports average model
accuracies of ~99 %.

This driver regenerates the same grid: the predicted ETEE comes from the
nominal-parameter models and the "measured" reference from the perturbed-
parameter + noise reference of :class:`repro.analysis.validation`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.reporting import format_table
from repro.analysis.resultset import ResultSet
from repro.analysis.study import Study
from repro.analysis.validation import ValidationHarness
from repro.power.domains import WorkloadType

#: The TDPs of the Fig. 4 panels.
FIG4_TDPS_W: Sequence[float] = (4.0, 18.0, 50.0)

#: The AR range of the Fig. 4 panels.
FIG4_ARS: Sequence[float] = (0.40, 0.50, 0.60, 0.70, 0.80)

#: The workload types of the Fig. 4 rows.
FIG4_WORKLOAD_TYPES: Sequence[WorkloadType] = (
    WorkloadType.CPU_SINGLE_THREAD,
    WorkloadType.CPU_MULTI_THREAD,
    WorkloadType.GRAPHICS,
)

#: The three commonly-used PDNs validated in Fig. 4.
FIG4_PDNS: Sequence[str] = ("IVR", "MBVR", "LDO")


def _engine(pdn_names: Sequence[str]) -> PdnSpot:
    """A fresh engine over ``pdn_names`` (IVR is the baseline when present)."""
    baseline = "IVR" if "IVR" in pdn_names else pdn_names[0]
    return PdnSpot(pdn_names=list(pdn_names), baseline_name=baseline)


def etee_grid_resultset(
    tdps_w: Sequence[float] = FIG4_TDPS_W,
    application_ratios: Sequence[float] = FIG4_ARS,
    workload_types: Sequence[WorkloadType] = FIG4_WORKLOAD_TYPES,
    pdn_names: Sequence[str] = FIG4_PDNS,
    spot: Optional[PdnSpot] = None,
) -> ResultSet:
    """The Fig. 4(a-i) predicted-ETEE grid as a :class:`ResultSet`.

    Pass a shared ``spot`` to evaluate through its memo cache (as the
    experiment runner does); standalone calls build a fresh engine.
    """
    study = (
        Study.builder("fig4-etee-grid")
        .workload_types(*workload_types)
        .tdps(*tdps_w)
        .application_ratios(*application_ratios)
        .pdns(*pdn_names)
        .build()
    )
    spot = spot if spot is not None else _engine(pdn_names)
    return spot.run(study)


def etee_grid(
    tdps_w: Sequence[float] = FIG4_TDPS_W,
    application_ratios: Sequence[float] = FIG4_ARS,
    workload_types: Sequence[WorkloadType] = FIG4_WORKLOAD_TYPES,
    pdn_names: Sequence[str] = FIG4_PDNS,
) -> List[Dict[str, object]]:
    """Predicted ETEE over the full Fig. 4(a-i) grid."""
    return etee_grid_resultset(
        tdps_w, application_ratios, workload_types, pdn_names
    ).to_records()


def power_state_grid_resultset(
    tdp_w: float = 18.0,
    pdn_names: Sequence[str] = FIG4_PDNS,
    spot: Optional[PdnSpot] = None,
) -> ResultSet:
    """The Fig. 4(j) power-state grid as a :class:`ResultSet`."""
    study = Study.over_power_states(tdp_w, name="fig4-power-states").with_pdns(
        *pdn_names
    )
    spot = spot if spot is not None else _engine(pdn_names)
    return spot.run(study)


def power_state_grid(
    tdp_w: float = 18.0, pdn_names: Sequence[str] = FIG4_PDNS
) -> List[Dict[str, object]]:
    """Predicted ETEE over the Fig. 4(j) power states."""
    return power_state_grid_resultset(tdp_w, pdn_names).to_records()


def model_accuracy(
    trace_count_per_type: int = 20, pdn_names: Sequence[str] = FIG4_PDNS, seed: int = 7
) -> Dict[str, Dict[str, float]]:
    """Average / min / max model accuracy per PDN (the Sec. 4.3 numbers)."""
    harness = ValidationHarness(seed=seed)
    summaries = harness.validate_all(trace_count_per_type, pdn_names)
    return {
        name: {
            "average_accuracy": summary.average_accuracy,
            "min_accuracy": summary.min_accuracy,
            "max_accuracy": summary.max_accuracy,
        }
        for name, summary in summaries.items()
    }


def format_figure4(
    grid: List[Dict[str, object]] = None,
    power_states: List[Dict[str, object]] = None,
    accuracy: Dict[str, Dict[str, float]] = None,
    spot: Optional[PdnSpot] = None,
) -> str:
    """Render the Fig. 4 grid, power-state panel and accuracy summary."""
    grid = grid if grid is not None else etee_grid_resultset(spot=spot).to_records()
    power_states = (
        power_states
        if power_states is not None
        else power_state_grid_resultset(spot=spot).to_records()
    )
    accuracy = accuracy if accuracy is not None else model_accuracy()
    sections = []
    grid_rows = [
        [r["workload_type"], r["tdp_w"], r["application_ratio"], r["pdn"], r["etee"]]
        for r in grid
    ]
    sections.append(
        format_table(
            ["workload", "TDP (W)", "AR", "PDN", "ETEE"],
            grid_rows,
            title="Fig. 4(a-i) - ETEE vs AR grid",
        )
    )
    ps_rows = [[r["power_state"], r["pdn"], r["etee"]] for r in power_states]
    sections.append(
        format_table(
            ["power state", "PDN", "ETEE"],
            ps_rows,
            title="Fig. 4(j) - ETEE in battery-life power states",
        )
    )
    accuracy_rows = [
        [name, stats["average_accuracy"], stats["min_accuracy"], stats["max_accuracy"]]
        for name, stats in accuracy.items()
    ]
    sections.append(
        format_table(
            ["PDN", "avg accuracy", "min", "max"],
            accuracy_rows,
            float_format=".4f",
            title="Sec. 4.3 - model accuracy vs synthetic measured reference",
        )
    )
    return "\n\n".join(sections)
