"""Experiment E-FIG8: the headline evaluation (Fig. 8a-e).

Fig. 8 compares the five PDNs, normalised to IVR, on:

* (a) average SPEC CPU2006 performance across TDPs 4--50 W,
* (b) average 3DMark06 performance across TDPs 4--50 W,
* (c) average power of the four battery-life workloads,
* (d) bill of materials across TDPs, and
* (e) board area across TDPs.

Headline shapes the reproduction must preserve: FlexWatts ~ +22 % (SPEC) and
~ +25 % (3DMark06) over IVR at 4 W; the IVR/FlexWatts advantage at high TDPs;
8--11 % lower battery-life power than IVR; MBVR/LDO several times the BOM and
area of IVR while FlexWatts and I+MBVR stay comparable to IVR.

All panels evaluate through the shared :class:`PdnSpot` cache: the baseline
evaluations the performance model repeats per candidate PDN and the package
power states the four battery-life workloads share are each computed once
(pass one ``spot`` to every panel, as :func:`format_figure8` does, to share
the cache across panels too).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.comparison import normalised_metric_table
from repro.analysis.executor import EvalUnit
from repro.analysis.pdnspot import PdnSpot
from repro.analysis.reporting import format_mapping_table, format_table
from repro.pdn.base import OperatingConditions
from repro.workloads.battery_life import BATTERY_LIFE_WORKLOADS
from repro.workloads.graphics import THREEDMARK06_BENCHMARKS
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS

#: The TDP levels of the Fig. 8(a)/(b)/(d)/(e) sweeps.
FIG8_TDPS_W: Sequence[float] = (4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0)

#: The PDNs compared throughout Fig. 8.
FIG8_PDNS: Sequence[str] = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")


def _spot(pdn_names: Sequence[str] = FIG8_PDNS) -> PdnSpot:
    return PdnSpot(pdn_names=list(pdn_names))


def prewarm_figure8(
    spot: PdnSpot,
    tdps_w: Sequence[float] = FIG8_TDPS_W,
    battery_tdp_w: float = 18.0,
) -> None:
    """Pre-evaluate every PDN operating point behind the Fig. 8 panels.

    Fig. 8 iterates over per-benchmark, per-TDP and per-power-state points
    through the performance model and the battery-life workloads; the set of
    *distinct* underlying evaluations is assembled here and dispatched as one
    batch, so the panel loops afterwards run on cache hits.  A spot without
    a cache could not serve those loops from the batch, so nothing is run.
    """
    if not spot.cache_enabled:
        return
    units: List[EvalUnit] = []
    names = tuple(spot.pdns)
    for benchmark in (*SPEC_CPU2006_BENCHMARKS, *THREEDMARK06_BENCHMARKS):
        for tdp_w in tdps_w:
            conditions = OperatingConditions.for_active_workload(
                tdp_w, benchmark.application_ratio, benchmark.workload_type
            )
            units.extend((name, conditions, ()) for name in names)
    for workload in BATTERY_LIFE_WORKLOADS:
        for state, residency in workload.residencies.items():
            if residency == 0.0:
                continue
            conditions = OperatingConditions.for_power_state(battery_tdp_w, state)
            units.extend((name, conditions, ()) for name in names)
    spot.evaluate_units(units)


def spec_performance_sweep(
    tdps_w: Sequence[float] = FIG8_TDPS_W, spot: PdnSpot = None
) -> List[Dict[str, object]]:
    """Fig. 8(a): SPEC CPU2006 average performance vs TDP (normalised to IVR)."""
    spot = spot if spot is not None else _spot()
    records: List[Dict[str, object]] = []
    for tdp_w in tdps_w:
        averages = spot.compare_performance(SPEC_CPU2006_BENCHMARKS, tdp_w)
        row: Dict[str, object] = {"tdp_w": tdp_w}
        row.update(averages)
        records.append(row)
    return records


def graphics_performance_sweep(
    tdps_w: Sequence[float] = FIG8_TDPS_W, spot: PdnSpot = None
) -> List[Dict[str, object]]:
    """Fig. 8(b): 3DMark06 average performance vs TDP (normalised to IVR)."""
    spot = spot if spot is not None else _spot()
    records: List[Dict[str, object]] = []
    for tdp_w in tdps_w:
        averages = spot.compare_performance(THREEDMARK06_BENCHMARKS, tdp_w)
        row: Dict[str, object] = {"tdp_w": tdp_w}
        row.update(averages)
        records.append(row)
    return records


def battery_life_power(spot: PdnSpot = None, tdp_w: float = 18.0) -> Dict[str, Dict[str, float]]:
    """Fig. 8(c): battery-life average power normalised to IVR, per workload."""
    spot = spot if spot is not None else _spot()
    raw = spot.compare_battery_life_power(tdp_w)
    return {
        workload: normalised_metric_table(powers, reference_name="IVR", higher_is_better=False)
        for workload, powers in raw.items()
    }


def bom_sweep(
    tdps_w: Sequence[float] = FIG8_TDPS_W, spot: PdnSpot = None
) -> List[Dict[str, object]]:
    """Fig. 8(d): normalised BOM vs TDP."""
    spot = spot if spot is not None else _spot()
    records: List[Dict[str, object]] = []
    for tdp_w in tdps_w:
        row: Dict[str, object] = {"tdp_w": tdp_w}
        row.update(spot.compare_bom(tdp_w))
        records.append(row)
    return records


def board_area_sweep(
    tdps_w: Sequence[float] = FIG8_TDPS_W, spot: PdnSpot = None
) -> List[Dict[str, object]]:
    """Fig. 8(e): normalised board area vs TDP."""
    spot = spot if spot is not None else _spot()
    records: List[Dict[str, object]] = []
    for tdp_w in tdps_w:
        row: Dict[str, object] = {"tdp_w": tdp_w}
        row.update(spot.compare_board_area(tdp_w))
        records.append(row)
    return records


def _format_sweep(records: List[Dict[str, object]], title: str) -> str:
    headers = ["TDP (W)"] + list(FIG8_PDNS)
    rows = [[r["tdp_w"]] + [r[name] for name in FIG8_PDNS] for r in records]
    return format_table(headers, rows, title=title)


def format_figure8(spot: PdnSpot = None) -> str:
    """Render all five Fig. 8 panels.

    The distinct operating points behind all five panels are evaluated as
    one batch first (see :func:`prewarm_figure8`); the panel construction
    then runs on cache hits.
    """
    spot = spot if spot is not None else _spot()
    prewarm_figure8(spot)
    sections = [
        _format_sweep(
            spec_performance_sweep(spot=spot),
            "Fig. 8(a) - SPEC CPU2006 average performance (normalised to IVR)",
        ),
        _format_sweep(
            graphics_performance_sweep(spot=spot),
            "Fig. 8(b) - 3DMark06 average performance (normalised to IVR)",
        ),
        format_mapping_table(
            battery_life_power(spot=spot),
            row_key_header="workload",
            title="Fig. 8(c) - battery-life average power (normalised to IVR)",
        ),
        _format_sweep(bom_sweep(spot=spot), "Fig. 8(d) - BOM (normalised to IVR)"),
        _format_sweep(
            board_area_sweep(spot=spot), "Fig. 8(e) - board area (normalised to IVR)"
        ),
    ]
    return "\n\n".join(sections)
