"""Multi-objective PDN design-space exploration (the ``optimize`` subsystem).

The paper's core contribution is a *design choice*: among competing
power-delivery topologies, the hybrid PDN wins on the joint objectives of
energy efficiency, performance, board area and BOM cost.  This subsystem
derives that conclusion automatically: declare a
:class:`~repro.optimize.space.DesignSpace` (topologies x component-sizing
parameter axes), pick objectives and a search strategy, and
:func:`~repro.optimize.runner.run_optimization` returns the evaluated
candidates, their Pareto front and the knee-point pick -- with every model
evaluation dispatched through the memo-cached Study/Sim engines.

See the optimisation guide (``docs/guides/optimization.md``) for the full
workflow.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.optimize.objectives import (
        DEFAULT_OBJECTIVES,
        OBJECTIVES,
        CandidateEvaluator,
        EvaluationSettings,
        Objective,
        resolve_objectives,
    )
    from repro.optimize.pareto import (
        annotate,
        dominates,
        knee_point,
        pareto_front,
        pareto_indices,
        scalarize,
    )
    from repro.optimize.runner import OptimizationOutcome, run_optimization
    from repro.optimize.space import DesignPoint, DesignSpace, DesignSpaceBuilder
    from repro.optimize.strategies import (
        STRATEGIES,
        EvolutionarySearch,
        GridSearch,
        RandomSearch,
        SearchStrategy,
        make_strategy,
    )

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceBuilder",
    "Objective",
    "OBJECTIVES",
    "DEFAULT_OBJECTIVES",
    "EvaluationSettings",
    "CandidateEvaluator",
    "resolve_objectives",
    "dominates",
    "pareto_indices",
    "pareto_front",
    "scalarize",
    "knee_point",
    "annotate",
    "SearchStrategy",
    "GridSearch",
    "RandomSearch",
    "EvolutionarySearch",
    "STRATEGIES",
    "make_strategy",
    "OptimizationOutcome",
    "run_optimization",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.optimize.objectives": (
        "DEFAULT_OBJECTIVES", "OBJECTIVES", "CandidateEvaluator", "EvaluationSettings",
        "Objective", "resolve_objectives",
    ),
    "repro.optimize.pareto": (
        "annotate", "dominates", "knee_point", "pareto_front", "pareto_indices", "scalarize",
    ),
    "repro.optimize.runner": ("OptimizationOutcome", "run_optimization"),
    "repro.optimize.space": ("DesignPoint", "DesignSpace", "DesignSpaceBuilder"),
    "repro.optimize.strategies": (
        "STRATEGIES", "EvolutionarySearch", "GridSearch", "RandomSearch", "SearchStrategy",
        "make_strategy",
    ),
})
