"""Adapters from simulation outcomes to the columnar :class:`ResultSet`.

A :class:`~repro.sim.engine.SimulationResult` is a per-run object; the
analysis layer (filter/pivot/normalize_to, JSON/CSV export, the CLI) speaks
:class:`~repro.analysis.resultset.ResultSet`.  These adapters flatten
simulation outcomes into the same ragged-schema record layout the analytic
sweeps use: one *summary* row per ``(scenario, pdn)`` simulation, or one
*phase* row per simulated phase for fine-grained inspection.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.analysis.resultset import Record, ResultSet
from repro.core.hybrid_vr import PdnMode
from repro.sim.engine import SimulationResult

#: Columns of a summary row that vary per PDN and are therefore never part
#: of a scenario's identity -- pass to :meth:`ResultSet.normalize_to` as
#: ``metric_columns`` when normalising simulation output to a baseline PDN.
SIM_METRIC_COLUMNS: Tuple[str, ...] = (
    "total_time_s",
    "total_energy_j",
    "average_power_w",
    "mode_switch_count",
    "mode_switch_time_s",
    "mode_switch_energy_j",
    "ivr_mode_time_s",
    "ldo_mode_time_s",
)


def simulation_record(
    result: SimulationResult, identity: Optional[Record] = None
) -> Record:
    """Flatten one simulation outcome into a summary record.

    ``identity`` carries the scenario-identifying fields (scenario name,
    seed, parameter overrides, ...) that the :class:`SimulationResult` itself
    does not know; they are placed before the metric columns, mirroring the
    analytic sweep layout.  The per-mode residency columns are only present
    for adaptive (FlexWatts) runs -- static PDNs have no mode, and the absent
    cells stay :data:`~repro.analysis.resultset.MISSING`.
    """
    record: Record = {"pdn": result.pdn_name}
    if identity:
        record.update(identity)
    record.setdefault("scenario", result.trace_name)
    record.setdefault("tdp_w", result.tdp_w)
    record.update(
        total_time_s=result.total_time_s,
        total_energy_j=result.total_energy_j,
        average_power_w=result.average_power_w,
        mode_switch_count=result.mode_switch_count,
        mode_switch_time_s=result.mode_switch_time_s,
        mode_switch_energy_j=result.mode_switch_energy_j,
    )
    if result.adaptive:
        record["ivr_mode_time_s"] = result.time_in_mode_s(PdnMode.IVR_MODE)
        record["ldo_mode_time_s"] = result.time_in_mode_s(PdnMode.LDO_MODE)
    return record


def results_to_resultset(
    results: Iterable[Tuple[Optional[Record], SimulationResult]],
    name: str = "simulation",
) -> ResultSet:
    """Assemble ``(identity, result)`` pairs into a summary :class:`ResultSet`."""
    records = [simulation_record(result, identity) for identity, result in results]
    return ResultSet.from_records(records, name=name)


def phases_to_resultset(
    result: SimulationResult, identity: Optional[Record] = None
) -> ResultSet:
    """One row per simulated phase of one run (power, energy, mode, switches)."""
    records: List[Record] = []
    for phase in result.phase_records:
        record: Record = {"pdn": result.pdn_name}
        if identity:
            record.update(identity)
        record.setdefault("scenario", result.trace_name)
        record.update(
            phase_index=phase.phase_index,
            power_state=phase.power_state,
            workload_type=phase.workload_type,
            duration_s=phase.duration_s,
            supply_power_w=phase.supply_power_w,
            energy_j=phase.energy_j,
        )
        if phase.pdn_mode is not None:
            record["pdn_mode"] = phase.pdn_mode
            record["mode_switched"] = phase.mode_switched
        records.append(record)
    return ResultSet.from_records(records, name=f"{result.trace_name}-phases")
