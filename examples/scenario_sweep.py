#!/usr/bin/env python3
"""Scenario sweep: trace-driven simulation as a first-class study.

This example runs a :class:`~repro.sim.study.SimStudy` -- a grid of
registered scenario traces x TDPs -- through the simulation engine, then uses
the :class:`~repro.analysis.resultset.ResultSet` toolkit on the simulation
output:

1. simulate every registered scenario on every PDN at a tablet-class and a
   desktop-class TDP, and check that a rerun is served from the engine's
   memo cache with a bit-identical result set,
2. normalise the total energy to the IVR baseline and pivot it into a
   scenario x PDN table, and
3. drill into one adaptive run's per-phase records to show where FlexWatts
   switches modes.

Run with::

    python examples/scenario_sweep.py
"""

from repro.analysis.reporting import format_table
from repro.sim import SIM_METRIC_COLUMNS, SimEngine, SimStudy, phases_to_resultset
from repro.sim.study import SimPoint
from repro.workloads.scenarios import available_scenarios

PDN_ORDER = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")
TDPS_W = (4.0, 50.0)


def build_study() -> SimStudy:
    """Every registered scenario at a low and a high TDP, all five PDNs."""
    return (
        SimStudy.builder("scenario-sweep")
        .scenarios(*available_scenarios())
        .tdps(*TDPS_W)
        .pdns(*PDN_ORDER)
        .build()
    )


def main() -> None:
    """Run the sweep and print the normalised-energy and mode-switch tables."""
    engine = SimEngine()
    study = build_study()

    # 1. One batch over the whole grid; the rerun is all cache hits and
    #    must equal the cold run bit for bit.
    results = engine.run(study)
    rerun = engine.run(study)
    assert rerun.to_json() == results.to_json(), "a cached rerun must be identical"
    assert rerun.run_stats.cache_misses == 0, "the rerun must be all cache hits"

    # 2. Energy normalised to the IVR PDN, one row per scenario x TDP.
    normalised = results.normalize_to(
        "IVR", value_columns=("total_energy_j",), metric_columns=SIM_METRIC_COLUMNS
    )
    table = {}
    for record in normalised.to_records():
        key = (record["scenario"], record["tdp_w"])
        table.setdefault(key, {})[record["pdn"]] = record["total_energy_j"]
    rows = [
        [scenario, tdp_w] + [cells[pdn] for pdn in PDN_ORDER]
        for (scenario, tdp_w), cells in table.items()
    ]
    print(
        format_table(
            ["scenario", "TDP (W)"] + list(PDN_ORDER),
            rows,
            title="Total energy normalised to IVR",
        )
    )
    print()

    # 3. Inside one adaptive run: per-phase power and the mode trajectory.
    point = SimPoint(scenario="bursty-interactive", tdp_w=50.0)
    run = engine.evaluate("FlexWatts", point)
    phases = phases_to_resultset(run)
    switches = phases.filter(mode_switched=True)
    print(
        f"FlexWatts on {point.scenario!r} at {point.tdp_w:g} W: "
        f"{run.mode_switch_count} mode switches, "
        f"{1e6 * run.mode_switch_time_s:.0f} us total switch time, "
        f"{1e3 * run.mode_switch_energy_j:.2f} mJ switch energy"
    )
    rows = [
        [
            record["phase_index"],
            record["power_state"],
            record["pdn_mode"],
            record["supply_power_w"],
        ]
        for record in switches.to_records()[:10]
    ]
    print(
        format_table(
            ["phase", "power state", "new mode", "supply power (W)"],
            rows,
            title="First ten phases that switched mode",
        )
    )


if __name__ == "__main__":
    main()
