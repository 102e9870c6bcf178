"""Run every experiment and collect the formatted outputs.

``python -m repro.experiments.runner`` prints the full set of regenerated
tables (one section per paper figure); ``run_all_experiments`` returns them as
a dictionary so tests and the benchmark harness can pick individual sections.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.pdnspot import PdnSpot
from repro.experiments import (
    fig2_performance_model,
    fig3_vr_efficiency,
    fig4_validation,
    fig5_loss_breakdown,
    fig7_spec_4w,
    fig8_evaluation,
    optimize_pdn,
    sim_scenarios,
)


def run_all_experiments(
    include_validation: bool = True,
    spot: Optional[PdnSpot] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, str]:
    """Regenerate every figure and return the formatted tables keyed by id.

    Parameters
    ----------
    include_validation:
        The Fig. 4 grid is the slowest experiment (it validates three PDNs over
        a synthetic trace population); set to ``False`` for a quick pass.
    spot:
        Optional shared :class:`PdnSpot`; by default one instance (and hence
        one evaluation cache) is created here and reused by every figure that
        evaluates PDN operating points, so grid points shared between figures
        are computed once.
    cache_dir:
        Optional persistent cache directory (see :mod:`repro.cache`): the
        simulation engines of the scenario and optimization figures attach
        it as their disk tier, so a second ``repro figures`` run -- in any
        process -- replays every simulation from disk.
    """
    if spot is None:
        spot = PdnSpot()
    outputs: Dict[str, str] = {
        "fig2a": fig2_performance_model.format_figure2a(),
        "fig2b": fig2_performance_model.format_figure2b(),
        "fig3": fig3_vr_efficiency.format_figure3(),
        "fig5": fig5_loss_breakdown.format_figure5(spot=spot),
        "fig7": fig7_spec_4w.format_figure7(spot=spot),
        "fig8": fig8_evaluation.format_figure8(spot=spot),
        "sim": sim_scenarios.format_sim_scenarios(cache_dir=cache_dir),
        "optimize": optimize_pdn.format_optimize(spot=spot, cache_dir=cache_dir),
    }
    if include_validation:
        outputs["fig4"] = fig4_validation.format_figure4(spot=spot)
    return outputs


def main() -> None:
    """Print every regenerated figure."""
    outputs = run_all_experiments()
    for key in sorted(outputs):
        print(f"===== {key} =====")
        print(outputs[key])
        print()


if __name__ == "__main__":
    main()
