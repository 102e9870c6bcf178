"""Experiment drivers: one module per paper table/figure.

Each module exposes a function that regenerates the data behind one figure of
the paper and a ``format_*`` helper that renders it as a plain-text table.
The benchmark harness under ``benchmarks/`` calls these drivers (so every
figure has a ``pytest-benchmark`` target), and ``EXPERIMENTS.md`` records the
paper-versus-measured comparison for each.

==========================  ====================================================
Module                      Paper artifact
==========================  ====================================================
``fig2_performance_model``  Fig. 2(a) frequency sensitivity, Fig. 2(b) budget
                            breakdown
``fig3_vr_efficiency``      Fig. 3 off-chip VR efficiency curves
``fig4_validation``         Fig. 4(a-j) PDNspot validation grid
``fig5_loss_breakdown``     Fig. 5 PDN loss breakdown at 4/18/50 W
``fig7_spec_4w``            Fig. 7 per-benchmark SPEC CPU2006 performance @4 W
``fig8_evaluation``         Fig. 8(a-e) SPEC/3DMark/battery-life/BOM/area
``sim_scenarios``           Scenario simulations across the five PDNs
``optimize_pdn``            The design conclusion as a Pareto/knee result
``runner``                  Runs every experiment and collects the outputs
==========================  ====================================================
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.experiments import (
        fig2_performance_model,
        fig3_vr_efficiency,
        fig4_validation,
        fig5_loss_breakdown,
        fig7_spec_4w,
        fig8_evaluation,
        optimize_pdn,
    )
    from repro.experiments.runner import run_all_experiments

__all__ = [
    "fig2_performance_model",
    "fig3_vr_efficiency",
    "fig4_validation",
    "fig5_loss_breakdown",
    "fig7_spec_4w",
    "fig8_evaluation",
    "optimize_pdn",
    "run_all_experiments",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.experiments.runner": ("run_all_experiments",),
})
