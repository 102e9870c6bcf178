"""The design-space exploration entry point.

:func:`run_optimization` ties the subsystem together: it resolves the
objectives and the search strategy, drives the strategy over a
:class:`~repro.optimize.space.DesignSpace` with a batch evaluator backed by
the memo-cached engines, and assembles an :class:`OptimizationOutcome` --
the evaluated candidates as an annotated
:class:`~repro.analysis.resultset.ResultSet`, the Pareto front, and the
knee-point pick.

Example
-------
>>> from repro.optimize import DesignSpace, run_optimization
>>> outcome = run_optimization(DesignSpace.over_pdns(["IVR", "FlexWatts"]))
>>> "FlexWatts" in outcome.front.unique("pdn")
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.resultset import Record, ResultSet
from repro.obs import trace as obs_trace
from repro.obs.runstats import RunStats
from repro.optimize.objectives import (
    CandidateEvaluator,
    EvaluationSettings,
    Objective,
    resolve_objectives,
)
from repro.optimize.pareto import annotate
from repro.optimize.space import DesignSpace
from repro.optimize.strategies import Evaluated, make_strategy
from repro.power.parameters import PdnTechnologyParameters
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class OptimizationOutcome:
    """Everything a design-space search produced.

    Attributes
    ----------
    results:
        One row per evaluated candidate, in evaluation order, with the
        objective columns plus boolean ``pareto``/``knee`` markers; ready
        for JSON/CSV export through the regular result-set writers.
    front:
        The Pareto-optimal subset of ``results`` (markers included).
    knee:
        The knee-point row: the balanced pick on the front.
    objectives:
        The resolved objectives, in selection order.
    strategy:
        Registry name of the strategy that ran.
    run_stats:
        Advisory :class:`~repro.obs.runstats.RunStats` of the search --
        candidates evaluated, wall time, and the evaluator engine's
        memory-cache hit/miss delta.  Excluded from equality so outcomes
        compare by what the search produced, not how fast it ran.
    """

    results: ResultSet
    front: ResultSet
    knee: Record
    objectives: Tuple[Objective, ...]
    strategy: str
    run_stats: Optional[RunStats] = field(default=None, compare=False)

    @property
    def knee_pdn(self) -> str:
        """Topology of the knee-point candidate (the recommended design)."""
        return str(self.knee["pdn"])


def run_optimization(
    space: DesignSpace,
    objectives: Optional[Sequence[str]] = None,
    strategy: object = None,
    budget: Optional[int] = None,
    seed: Optional[int] = None,
    settings: Optional[EvaluationSettings] = None,
    parameters: Optional[PdnTechnologyParameters] = None,
    evaluator: Optional[CandidateEvaluator] = None,
    cache_dir: Optional[str] = None,
) -> OptimizationOutcome:
    """Search ``space`` against multiple objectives and rank the outcome.

    Parameters
    ----------
    space:
        The candidate designs (topology x parameter axes, constrained).
    objectives:
        Objective names (see :data:`~repro.optimize.objectives.OBJECTIVES`);
        default :data:`~repro.optimize.objectives.DEFAULT_OBJECTIVES`.
    strategy:
        ``None`` / ``"grid"`` (exhaustive), ``"random"`` or
        ``"evolutionary"``, or a pre-built strategy instance.
    budget:
        Candidate budget for the sampling strategies (grid cap optional).
    seed:
        RNG seed of the sampling strategies (default 0); a fixed seed makes
        the whole search reproducible.  Must be left unset with a pre-built
        strategy instance.
    settings:
        Operating conditions (TDP set, benchmarks, scenarios, baseline).
    parameters:
        Base technology parameters for a fresh evaluator.
    evaluator:
        Optional pre-built :class:`CandidateEvaluator` (shares caches across
        searches); mutually exclusive with ``settings``/``parameters``.
    cache_dir:
        Optional persistent cache directory (see :mod:`repro.cache`)
        attached to the fresh evaluator's simulation engine; a warm
        directory serves the energy/power objectives' simulations from disk
        across processes.  Mutually exclusive with a prebuilt ``evaluator``.
    """
    resolved = resolve_objectives(objectives)
    if evaluator is not None:
        if settings is not None or parameters is not None:
            raise ConfigurationError(
                "pass either a prebuilt evaluator or settings/parameters, not both"
            )
        if cache_dir is not None:
            raise ConfigurationError(
                "pass either a prebuilt evaluator or cache_dir; attach the "
                "disk cache when building the evaluator instead"
            )
        if tuple(evaluator.objectives) != resolved:
            raise ConfigurationError(
                "the prebuilt evaluator computes different objectives than "
                "the ones selected"
            )
    else:
        evaluator = CandidateEvaluator(
            resolved, settings=settings, parameters=parameters, cache_dir=cache_dir
        )
    search = make_strategy(strategy, budget=budget, seed=seed)

    started = time.perf_counter()
    before = evaluator.spot.cache_info()
    with obs_trace.span(
        "optimize.search", category="optimize",
        strategy=search.name, space=space.name,
    ) as search_span:
        evaluated: List[Evaluated] = search.search(
            space, evaluator.evaluate_batch, resolved
        )
        search_span.set("candidates", len(evaluated))
    if not evaluated:
        raise ConfigurationError(
            f"strategy {search.name!r} evaluated no candidates of "
            f"space {space.name!r}"
        )
    after = evaluator.spot.cache_info()
    run_stats = RunStats(
        units=len(evaluated),
        duration_s=time.perf_counter() - started,
        cache_hits=after.hits - before.hits,
        cache_misses=after.misses - before.misses,
    )
    results = ResultSet.from_records(
        [record for _, record in evaluated], name=space.name
    )
    # One dominance scan: annotate() computes both markers, and the front
    # and knee row are read back from the marker columns in linear time.
    annotated = annotate(results, resolved)
    front = annotated.filter(pareto=True)
    knee = annotated.row(annotated.column("knee").index(True))
    return OptimizationOutcome(
        results=annotated,
        front=front,
        knee=knee,
        objectives=resolved,
        strategy=search.name,
        run_stats=run_stats,
    )
