"""Experiment E-OPT: the paper's design conclusion as a Pareto result.

The paper's evaluation (Figs. 7-8) compares the competing PDN topologies on
energy efficiency, performance, BOM cost and board area, and concludes that
the hybrid FlexWatts design is the best joint trade-off.  This experiment
derives that conclusion automatically with the :mod:`repro.optimize`
subsystem: an exhaustive grid search over the five topologies under the
default objectives must place FlexWatts on the Pareto front -- and make it
the knee-point (balanced) pick -- over the IVR/MBVR/LDO baselines.

Shapes the reproduction must preserve: FlexWatts and the IVR baseline are
Pareto-optimal (IVR anchors the cost corner, FlexWatts the efficiency/
performance corner), MBVR and LDO are dominated, and the knee point is
FlexWatts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.reporting import format_table
from repro.optimize import (
    CandidateEvaluator,
    DesignSpace,
    OptimizationOutcome,
    resolve_objectives,
    run_optimization,
)

#: The topology axis of the default search (presentation order).
OPTIMIZE_PDNS: Sequence[str] = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")


def default_design_space() -> DesignSpace:
    """The paper's competing topologies as a design space."""
    return DesignSpace.over_pdns(OPTIMIZE_PDNS, name="pdn-topology-comparison")


def optimize_outcome(
    spot: Optional[PdnSpot] = None,
    cache_dir: Optional[str] = None,
) -> OptimizationOutcome:
    """Exhaustive search of the topology space under the default objectives.

    Pass the experiment runner's shared :class:`PdnSpot` so the search
    resolves the operating points it shares with the fig7/fig8 sweeps from
    the warm memo cache instead of recomputing them.  ``cache_dir`` attaches
    the persistent disk tier (see :mod:`repro.cache`) to the simulation
    engine behind the energy/power objectives.
    """
    evaluator = (
        CandidateEvaluator(resolve_objectives(), spot=spot, cache_dir=cache_dir)
        if spot is not None
        else None
    )
    return run_optimization(
        default_design_space(),
        strategy="grid",
        evaluator=evaluator,
        cache_dir=cache_dir if evaluator is None else None,
    )


def format_optimize(
    spot: Optional[PdnSpot] = None,
    cache_dir: Optional[str] = None,
) -> str:
    """Render the search outcome plus the front / knee-point conclusion."""
    outcome = optimize_outcome(spot=spot, cache_dir=cache_dir)
    headers = ["PDN"] + [objective.column for objective in outcome.objectives] + [
        "pareto", "knee",
    ]
    rows = [
        [record["pdn"]]
        + [record[objective.column] for objective in outcome.objectives]
        + [record["pareto"], record["knee"]]
        for record in outcome.results.to_records()
    ]
    front = ", ".join(str(pdn) for pdn in outcome.front.unique("pdn"))
    return (
        format_table(
            headers,
            rows,
            title="Multi-objective PDN comparison (grid search, "
            "mean over TDPs 4/18/50 W)",
        )
        + f"\n\nPareto-optimal designs: {front}"
        + f"\nKnee point (balanced pick): {outcome.knee_pdn}"
    )
