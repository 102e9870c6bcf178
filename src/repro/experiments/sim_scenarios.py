"""Experiment E-SIM: scenario simulations across the five PDNs.

The paper's dynamic claims -- FlexWatts tracks the better of its two modes
over time-varying workloads while paying only the 94 us mode-switch flow --
are exercised here over the registered scenario generators
(:mod:`repro.workloads.scenarios`) at a low and a high TDP.  The output is
the energy of every PDN normalised to the IVR baseline per scenario, plus
FlexWatts' mode-switch activity, produced by one :class:`SimStudy` run.

Shapes the reproduction must preserve: FlexWatts never draws more energy
than the *worse* of I+MBVR and LDO on any scenario, and on idle-heavy
scenarios at low TDP it tracks the LDO side within the switch overhead.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.reporting import format_table
from repro.analysis.resultset import ResultSet
from repro.sim.adapters import SIM_METRIC_COLUMNS
from repro.sim.study import SimEngine, SimStudy
from repro.workloads.scenarios import available_scenarios

#: The TDP levels the scenario comparison runs at (tablet- and desktop-class).
SIM_TDPS_W: Sequence[float] = (4.0, 50.0)

#: The PDNs compared, in presentation order.
SIM_PDNS: Sequence[str] = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")


def scenario_study(
    scenarios: Optional[Sequence[str]] = None,
    tdps_w: Sequence[float] = SIM_TDPS_W,
) -> SimStudy:
    """The scenario x TDP grid of the experiment (all scenarios by default)."""
    return (
        SimStudy.builder("sim-scenarios")
        .scenarios(*(scenarios if scenarios else available_scenarios()))
        .tdps(*tdps_w)
        .pdns(*SIM_PDNS)
        .build()
    )


def scenario_resultset(
    engine: Optional[SimEngine] = None,
    scenarios: Optional[Sequence[str]] = None,
    tdps_w: Sequence[float] = SIM_TDPS_W,
    cache_dir: Optional[str] = None,
) -> ResultSet:
    """Summary rows of every ``(scenario, TDP, PDN)`` simulation.

    ``cache_dir`` attaches the persistent disk tier (see :mod:`repro.cache`)
    to a freshly built engine; ignored when an ``engine`` is passed.
    """
    if engine is None:
        engine = SimEngine(disk_cache=cache_dir)
    return engine.run(scenario_study(scenarios, tdps_w))


def format_sim_scenarios(
    engine: Optional[SimEngine] = None,
    cache_dir: Optional[str] = None,
) -> str:
    """Energy per scenario normalised to IVR, plus FlexWatts switch counts."""
    results = scenario_resultset(engine, cache_dir=cache_dir)
    normalised = results.normalize_to(
        "IVR",
        value_columns=("total_energy_j",),
        metric_columns=SIM_METRIC_COLUMNS,
    )
    energy = {}
    for record in normalised.to_records():
        row_key = (record["scenario"], record["tdp_w"])
        energy.setdefault(row_key, {})[record["pdn"]] = record["total_energy_j"]
    switches = {
        (record["scenario"], record["tdp_w"]): record["mode_switch_count"]
        for record in results.filter(pdn="FlexWatts").to_records()
    }
    rows = [
        [scenario, tdp_w]
        + [energy[(scenario, tdp_w)][pdn] for pdn in SIM_PDNS]
        + [switches[(scenario, tdp_w)]]
        for scenario, tdp_w in energy
    ]
    return format_table(
        ["scenario", "TDP (W)"] + list(SIM_PDNS) + ["FW switches"],
        rows,
        title="Scenario energy normalised to IVR (interval simulation)",
    )
