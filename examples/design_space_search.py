#!/usr/bin/env python3
"""Multi-objective design-space search with ``repro.optimize``.

This example walks the full optimisation workflow the subsystem provides:

1. recover the paper's design conclusion -- an exhaustive grid search over
   the five PDN topologies places the hybrid FlexWatts design on the Pareto
   front and makes it the knee-point (balanced) pick,
2. widen the space with component-sizing axes (regulator tolerance bands)
   and compare the exhaustive search against a seeded random sample and a
   seeded evolutionary refinement under a fixed candidate budget,
3. rank the evaluated candidates with a weighted scalarisation (cost-heavy
   weights pull the cheap IVR baseline ahead of the expensive MBVR/LDO
   designs while the hybrid keeps the lead), and
4. show the seeded-determinism guarantee: the same seeded search run again
   on fresh engines returns a bit-identical result set.

Run with::

    python examples/design_space_search.py
"""

from repro.analysis.reporting import format_table
from repro.optimize import DesignSpace, run_optimization, scalarize

#: Candidate budget shared by the sampling strategies in step 2.
BUDGET = 12
SEED = 7


def paper_conclusion() -> None:
    """Step 1: the topology-only search behind the paper's conclusion."""
    outcome = run_optimization(DesignSpace.over_pdns())
    rows = [
        [
            record["pdn"],
            record["etee"],
            record["performance"],
            record["bom_cost"],
            record["board_area_mm2"],
            "yes" if record["pareto"] else "",
        ]
        for record in outcome.results.to_records()
    ]
    print(
        format_table(
            ["PDN", "ETEE", "perf", "BOM", "area (mm^2)", "Pareto"],
            rows,
            title="Topology comparison (mean over TDPs 4/18/50 W)",
        )
    )
    print(f"Knee point (balanced pick): {outcome.knee_pdn}")
    print()


def sizing_space() -> DesignSpace:
    """The widened space of step 2: topologies x tolerance-band sizing."""
    return (
        DesignSpace.builder("tolerance-band-sizing")
        .pdns("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")
        .parameter("ivr_tolerance_band_v", 0.015, 0.020, 0.025)
        .parameter("ldo_tolerance_band_v", 0.013, 0.017)
        .build()
    )


def strategy_comparison() -> None:
    """Step 2: three strategies on the same space under one budget."""
    space = sizing_space()
    rows = []
    for strategy in ("grid", "random", "evolutionary"):
        outcome = run_optimization(
            space, strategy=strategy, budget=BUDGET, seed=SEED
        )
        rows.append(
            [
                strategy,
                len(outcome.results),
                len(outcome.front),
                outcome.knee_pdn,
            ]
        )
    print(
        format_table(
            ["strategy", "evaluated", "front size", "knee PDN"],
            rows,
            title=f"Search strategies on {space.grid_size} candidates "
            f"(budget {BUDGET}, seed {SEED})",
        )
    )
    print()


def weighted_ranking() -> None:
    """Step 3: scalarised ranking under cost-heavy weights."""
    outcome = run_optimization(DesignSpace.over_pdns())
    objectives = outcome.objectives
    scored = scalarize(
        outcome.results,
        objectives,
        weights={"bom": 3.0, "area": 3.0},
    )
    ranked = sorted(
        scored.to_records(), key=lambda record: -float(record["score"])
    )
    rows = [[record["pdn"], record["score"]] for record in ranked]
    print(
        format_table(
            ["PDN", "score"],
            rows,
            title="Cost-weighted scalarisation (BOM/area weighted 3x)",
        )
    )
    print()
    print("Default objectives:", ", ".join(o.name for o in objectives))


def seeded_determinism() -> None:
    """Step 4: a seeded search reproduces itself bit for bit."""
    space = sizing_space()
    first, second = (
        run_optimization(space, strategy="random", budget=BUDGET, seed=SEED)
        for _ in range(2)
    )
    print(
        f"Seed {SEED} search repeated on fresh engines, result set identical:",
        first.results.to_json() == second.results.to_json(),
    )


def main() -> None:
    paper_conclusion()
    strategy_comparison()
    weighted_ranking()
    seeded_determinism()


if __name__ == "__main__":
    main()
