"""Experiment E-FIG7: per-benchmark SPEC CPU2006 performance at 4 W (Fig. 7).

Fig. 7 plots, for every SPEC CPU2006 benchmark, the performance of the five
PDNs (IVR, MBVR, LDO, I+MBVR, FlexWatts) at a 4 W TDP, normalised to the IVR
PDN, with the benchmarks sorted by their performance scalability.  The
headline result: MBVR, LDO and FlexWatts average >22 % higher performance than
IVR, FlexWatts trails the best static PDN by <1 %, and I+MBVR improves on IVR
by ~6 %.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.reporting import format_table
from repro.pdn.base import OperatingConditions
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS

#: The TDP of the Fig. 7 evaluation.
FIG7_TDP_W = 4.0

#: The PDNs compared in Fig. 7.
FIG7_PDNS: Sequence[str] = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")


def spec_performance_at_4w(
    tdp_w: float = FIG7_TDP_W,
    pdn_names: Sequence[str] = FIG7_PDNS,
    spot: PdnSpot = None,
) -> List[Dict[str, object]]:
    """Per-benchmark relative performance of each PDN at ``tdp_w``.

    Every (PDN, benchmark) point shares the cached baseline evaluation, so
    the IVR reference is computed once per benchmark instead of once per
    candidate PDN.  With the cache on, the distinct (PDN, operating point)
    pairs behind the performance model are pre-evaluated as one batch and
    the per-benchmark loop below runs on cache hits; with it off the loop
    could not read that batch, so none is run.
    """
    spot = spot if spot is not None else PdnSpot(pdn_names=list(pdn_names))
    if spot.cache_enabled:
        spot.evaluate_units(
            (
                pdn_name,
                OperatingConditions.for_active_workload(
                    tdp_w, benchmark.application_ratio, benchmark.workload_type
                ),
                (),
            )
            for benchmark in SPEC_CPU2006_BENCHMARKS
            for pdn_name in pdn_names
        )
    records: List[Dict[str, object]] = []
    for benchmark in SPEC_CPU2006_BENCHMARKS:
        row: Dict[str, object] = {
            "benchmark": benchmark.name,
            "performance_scalability": benchmark.performance_scalability,
        }
        for pdn_name in pdn_names:
            result = spot.performance(pdn_name, benchmark, tdp_w)
            row[pdn_name] = result.relative_performance
        records.append(row)
    return records


def average_performance(records: List[Dict[str, object]] = None) -> Dict[str, float]:
    """Suite-average relative performance per PDN (the Fig. 7 'Average' bar)."""
    records = records if records is not None else spec_performance_at_4w()
    averages: Dict[str, float] = {}
    for pdn_name in FIG7_PDNS:
        values = [record[pdn_name] for record in records if pdn_name in record]
        averages[pdn_name] = sum(values) / len(values)
    return averages


def format_figure7(
    records: List[Dict[str, object]] = None,
    spot: PdnSpot = None,
) -> str:
    """Render the Fig. 7 table (per benchmark plus the suite average)."""
    records = records if records is not None else spec_performance_at_4w(spot=spot)
    headers = ["benchmark", "perf. scal."] + list(FIG7_PDNS)
    rows = [
        [record["benchmark"], record["performance_scalability"]]
        + [record[name] for name in FIG7_PDNS]
        for record in records
    ]
    averages = average_performance(records)
    rows.append(["Average", ""] + [averages[name] for name in FIG7_PDNS])
    return format_table(
        headers,
        rows,
        title="Fig. 7 - SPEC CPU2006 performance at 4 W TDP (normalised to IVR)",
    )
