"""Objectives and candidate evaluation for design-space exploration.

An :class:`Objective` names one axis of the multi-objective comparison the
paper runs across PDN topologies -- energy efficiency, performance, BOM cost,
board area, IccMax, or trace-driven power/energy -- together with its
optimisation direction.  A :class:`CandidateEvaluator` turns a batch of
:class:`~repro.optimize.space.DesignPoint` candidates into one record of
objective values each, dispatching every underlying model evaluation through
the existing memo-cached engines:

* static operating points (the ``etee`` and ``performance`` objectives) go
  through :meth:`PdnSpot.evaluate_units`,
* scenario traces (the ``power`` and ``energy`` objectives) go through
  :meth:`SimEngine.evaluate_units`,
* the closed-form cost models (``bom``/``area``/``iccmax``) are computed
  directly -- they are orders of magnitude cheaper than a model evaluation.

Because both engines implement the
:class:`~repro.analysis.executor.EvaluationEngine` protocol, a batch rides
the same dispatch path as every other grid workload: candidates are
deduplicated, evaluated, and merged back into the shared memo caches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.resultset import Record
from repro.analysis.study import OverrideKey
from repro.cost.board_area import BoardAreaModel
from repro.cost.bom import BomModel
from repro.cost.iccmax import total_iccmax_a
from repro.optimize.space import DesignPoint
from repro.pdn.base import OperatingConditions, PdnEvaluation, conditions_key
from repro.pdn.registry import build_pdn
from repro.perf.model import PerformanceModel
from repro.power.domains import WorkloadType
from repro.power.parameters import PdnTechnologyParameters
from repro.sim.study import SimEngine, SimPoint
from repro.util.errors import ConfigurationError
from repro.workloads.base import Benchmark
from repro.workloads.scenarios import DEFAULT_SEED
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS

#: Optimisation directions an :class:`Objective` may declare.
MINIMIZE = "min"
MAXIMIZE = "max"


@dataclass(frozen=True)
class Objective:
    """One axis of the multi-objective comparison.

    Attributes
    ----------
    name:
        Registry name (what ``--objectives`` accepts).
    column:
        Result-set column the objective's values land in.
    direction:
        ``"min"`` or ``"max"``.
    description:
        One-line summary shown by the CLI and the docs.
    """

    name: str
    column: str
    direction: str
    description: str = ""

    def __post_init__(self) -> None:
        """Reject unknown optimisation directions fail-fast."""
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ConfigurationError(
                f"objective {self.name!r} direction must be "
                f"{MINIMIZE!r} or {MAXIMIZE!r}, got {self.direction!r}"
            )

    @property
    def maximize(self) -> bool:
        """Whether larger values are better."""
        return self.direction == MAXIMIZE

    def oriented(self, value: float) -> float:
        """The value with sign flipped so that *larger is always better*."""
        return value if self.maximize else -value


#: Registry of the built-in objectives, keyed by ``--objectives`` name.
OBJECTIVES: Dict[str, Objective] = {
    objective.name: objective
    for objective in (
        Objective(
            "etee", "etee", MAXIMIZE,
            "mean end-to-end efficiency over the TDP set (PdnSpot)",
        ),
        Objective(
            "performance", "performance", MAXIMIZE,
            "mean suite-average performance vs the nominal baseline PDN "
            "(perf model)",
        ),
        Objective(
            "power", "average_power_w", MINIMIZE,
            "mean scenario average power over the scenario x TDP set (SimEngine)",
        ),
        Objective(
            "energy", "total_energy_j", MINIMIZE,
            "mean scenario energy over the scenario x TDP set (SimEngine)",
        ),
        Objective(
            "bom", "bom_cost", MINIMIZE,
            "mean BOM cost over the TDP set (cost model, arbitrary units)",
        ),
        Objective(
            "area", "board_area_mm2", MINIMIZE,
            "mean board area over the TDP set (area model, mm^2)",
        ),
        Objective(
            "iccmax", "iccmax_total_a", MINIMIZE,
            "mean total off-chip Iccmax over the TDP set (headroom driver)",
        ),
    )
}

#: The default objective set: the four axes of the paper's design conclusion.
DEFAULT_OBJECTIVES: Tuple[str, ...] = ("etee", "performance", "bom", "area")

#: Objectives whose values come from the trace-driven simulation engine.
_SIM_OBJECTIVES = frozenset({"power", "energy"})


def resolve_objectives(
    names: Optional[Sequence[str]] = None,
) -> Tuple[Objective, ...]:
    """Resolve objective names (default set when ``None``) to instances."""
    selected = tuple(names) if names else DEFAULT_OBJECTIVES
    objectives: List[Objective] = []
    seen: set = set()
    for name in selected:
        if name not in OBJECTIVES:
            raise ConfigurationError(
                f"unknown objective {name!r}; available: "
                f"{', '.join(sorted(OBJECTIVES))}"
            )
        if name in seen:
            raise ConfigurationError(f"objective {name!r} selected twice")
        seen.add(name)
        objectives.append(OBJECTIVES[name])
    if not objectives:
        raise ConfigurationError("at least one objective is required")
    return tuple(objectives)


@dataclass(frozen=True)
class EvaluationSettings:
    """Operating conditions candidate designs are judged under.

    These are *conditions*, not search axes: every candidate is evaluated
    under the same settings, and objective values aggregate (arithmetic mean)
    over the TDP set -- and, for the simulation objectives, over the
    ``scenarios`` set -- so one candidate gets one scalar per objective.
    """

    tdps_w: Tuple[float, ...] = (4.0, 18.0, 50.0)
    application_ratio: float = 0.56
    workload_type: WorkloadType = WorkloadType.CPU_MULTI_THREAD
    benchmarks: Tuple[Benchmark, ...] = tuple(SPEC_CPU2006_BENCHMARKS)
    scenarios: Tuple[str, ...] = ("bursty-interactive",)
    seed: int = DEFAULT_SEED
    baseline_pdn: str = "IVR"

    def __post_init__(self) -> None:
        """Validate the aggregation sets fail-fast."""
        if not self.tdps_w:
            raise ConfigurationError("evaluation settings need at least one TDP")
        if not self.benchmarks:
            raise ConfigurationError(
                "evaluation settings need at least one benchmark"
            )
        if not self.scenarios:
            raise ConfigurationError(
                "evaluation settings need at least one scenario"
            )


def _mean(values: Sequence[float]) -> float:
    """Arithmetic mean in input order (deterministic summation)."""
    return sum(values) / len(values)


class CandidateEvaluator:
    """Evaluates design-point batches into objective records.

    Parameters
    ----------
    objectives:
        The objectives to compute (resolved :class:`Objective` instances).
    settings:
        Operating conditions shared by every candidate.
    parameters:
        Base technology parameters; candidate overrides stack on top.
    enable_cache:
        Forwarded to the owned engines; disabling reproduces the cold
        (seed-equivalent) evaluation cost for the benchmark harness.
    spot:
        Optional pre-built analytic engine to share a cache with.
    cache_dir:
        Optional persistent cache directory path (see :mod:`repro.cache`),
        the disk tier of the simulation engine behind the energy and power
        objectives.
    """

    def __init__(
        self,
        objectives: Sequence[Objective],
        settings: Optional[EvaluationSettings] = None,
        parameters: Optional[PdnTechnologyParameters] = None,
        enable_cache: bool = True,
        spot: Optional[PdnSpot] = None,
        cache_dir: Optional[str] = None,
    ):
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise ConfigurationError("a candidate evaluator needs objectives")
        self.settings = settings if settings is not None else EvaluationSettings()
        if spot is not None and parameters is not None:
            raise ConfigurationError(
                "pass either a prebuilt spot or parameters, not both"
            )
        self._spot = (
            spot
            if spot is not None
            else PdnSpot(parameters=parameters, enable_cache=enable_cache)
        )
        self._sim_engine: Optional[SimEngine] = None
        self._enable_cache = enable_cache
        # Paths only: fspath rejects anything else (a pre-built store
        # included) here, not mid-search when a sim objective first
        # builds the simulation engine.
        self._cache_dir = None if cache_dir is None else os.fspath(cache_dir)
        self._bom_model = BomModel()
        self._area_model = BoardAreaModel()
        #: Variant PDN instances for the cost models, keyed by
        #: (pdn name, overrides); model state, independent of enable_cache.
        self._cost_variants: Dict[Tuple[str, OverrideKey], object] = {}
        #: The performance yardstick, built lazily: a dedicated baseline
        #: instance (distinct from the engine's own, so the evaluator hook
        #: can tell baseline lookups from candidate lookups by identity).
        self._baseline_reference: Optional[object] = None

    @property
    def spot(self) -> PdnSpot:
        """The analytic engine (and shared memo cache) behind the batches."""
        return self._spot

    @property
    def sim_engine(self) -> SimEngine:
        """The trace-simulation engine, built on first use."""
        if self._sim_engine is None:
            self._sim_engine = SimEngine(
                parameters=self._spot.parameters,
                enable_cache=self._enable_cache,
                disk_cache=self._cache_dir,
            )
        return self._sim_engine

    @property
    def needs_simulation(self) -> bool:
        """Whether any selected objective requires the simulation engine."""
        return any(obj.name in _SIM_OBJECTIVES for obj in self.objectives)

    # ------------------------------------------------------------------ #
    # Batch evaluation
    # ------------------------------------------------------------------ #
    def evaluate_batch(self, points: Sequence[DesignPoint]) -> List[Record]:
        """Objective records for ``points``, in input order.

        Every static operating point and every scenario simulation the batch
        needs is assembled into one unit list per engine and dispatched as a
        single (deduplicated, memo-cached) call; the objective arithmetic
        afterwards is pure Python.
        """
        points = list(points)
        if not points:
            return []
        for point in points:
            self._spot.pdn(point.pdn)  # fail fast on unknown topologies
        selected = {objective.name for objective in self.objectives}
        analytic = self._analytic_values(points, selected)
        simulated = self._sim_values(points, selected)
        records: List[Record] = []
        for index, point in enumerate(points):
            record: Record = dict(point.record_fields())
            for objective in self.objectives:
                if objective.name in _SIM_OBJECTIVES:
                    record[objective.column] = simulated[index][objective.name]
                elif objective.name in ("etee", "performance"):
                    record[objective.column] = analytic[index][objective.name]
                else:
                    record[objective.column] = self._cost_value(
                        point, objective.name
                    )
            records.append(record)
        return records

    # ------------------------------------------------------------------ #
    # Analytic objectives (PdnSpot units)
    # ------------------------------------------------------------------ #
    def _analytic_values(
        self,
        points: Sequence[DesignPoint],
        selected: set,
    ) -> List[Dict[str, float]]:
        """Per-point ``etee``/``performance`` values (empty dicts if unused)."""
        wants_etee = "etee" in selected
        wants_perf = "performance" in selected
        if not (wants_etee or wants_perf):
            return [{} for _ in points]
        settings = self.settings
        units: List[Tuple[str, OperatingConditions, OverrideKey]] = []
        if wants_etee:
            for point in points:
                for tdp_w in settings.tdps_w:
                    conditions = OperatingConditions.for_active_workload(
                        tdp_w, settings.application_ratio, settings.workload_type
                    )
                    units.append((point.pdn, conditions, point.overrides))
        if wants_perf:
            for point in points:
                for benchmark in settings.benchmarks:
                    for tdp_w in settings.tdps_w:
                        conditions = OperatingConditions.for_active_workload(
                            tdp_w, benchmark.application_ratio, benchmark.workload_type
                        )
                        units.append((point.pdn, conditions, point.overrides))
            # The yardstick is the *nominal* baseline (no overrides): every
            # candidate is normalised against the same fixed reference
            # design, so performance scores are comparable across candidates
            # -- a candidate's overrides must not degrade its own baseline.
            # One unit per (benchmark, TDP) suffices for the whole batch.
            for benchmark in settings.benchmarks:
                for tdp_w in settings.tdps_w:
                    conditions = OperatingConditions.for_active_workload(
                        tdp_w, benchmark.application_ratio, benchmark.workload_type
                    )
                    units.append((settings.baseline_pdn, conditions, ()))
        evaluations = self._spot.evaluate_units(units)
        lookup: Dict[Tuple[object, ...], PdnEvaluation] = {}
        for unit, evaluation in zip(units, evaluations):
            name, conditions, overrides = unit
            lookup[(name, conditions_key(conditions), overrides)] = evaluation
        values: List[Dict[str, float]] = []
        for point in points:
            record: Dict[str, float] = {}
            if wants_etee:
                record["etee"] = _mean(
                    [
                        lookup[
                            (
                                point.pdn,
                                conditions_key(
                                    OperatingConditions.for_active_workload(
                                        tdp_w,
                                        settings.application_ratio,
                                        settings.workload_type,
                                    )
                                ),
                                point.overrides,
                            )
                        ].etee
                        for tdp_w in settings.tdps_w
                    ]
                )
            if wants_perf:
                record["performance"] = self._performance_score(point, lookup)
            values.append(record)
        return values

    def _baseline_yardstick(self) -> object:
        """The fixed nominal-baseline instance performance is scored against.

        A dedicated instance (not the engine's own) so the evaluator hook can
        distinguish baseline lookups from candidate lookups by identity even
        when a candidate uses the baseline topology itself.
        """
        if self._baseline_reference is None:
            self._baseline_reference = build_pdn(
                self.settings.baseline_pdn, self._spot.parameters
            )
        return self._baseline_reference

    def _performance_score(
        self,
        point: DesignPoint,
        lookup: Dict[Tuple[object, ...], PdnEvaluation],
    ) -> float:
        """Mean suite-average relative performance over the TDP set.

        Reuses :class:`~repro.perf.model.PerformanceModel` with an evaluator
        hook that serves the pre-batched evaluations, so the budget-split and
        frequency-sensitivity arithmetic stays in one place.  Baseline
        lookups resolve with *no* overrides -- the fixed yardstick -- while
        candidate lookups carry the point's overrides.
        """
        settings = self.settings
        yardstick = self._baseline_yardstick()

        def serve(pdn: object, conditions: OperatingConditions) -> PdnEvaluation:
            """Serve one pre-batched evaluation to the performance model."""
            overrides = () if pdn is yardstick else point.overrides
            return lookup[(pdn.name, conditions_key(conditions), overrides)]

        model = PerformanceModel(yardstick, evaluator=serve)
        candidate = self._spot.pdn(point.pdn)
        return _mean(
            [
                model.average_relative_performance(
                    candidate, settings.benchmarks, tdp_w
                )
                for tdp_w in settings.tdps_w
            ]
        )

    # ------------------------------------------------------------------ #
    # Simulation objectives (SimEngine units)
    # ------------------------------------------------------------------ #
    def _sim_values(
        self,
        points: Sequence[DesignPoint],
        selected: set,
    ) -> List[Dict[str, float]]:
        """Per-point ``power``/``energy`` values (empty dicts if unused)."""
        if not (selected & _SIM_OBJECTIVES):
            return [{} for _ in points]
        settings = self.settings
        units: List[Tuple[str, SimPoint, OverrideKey]] = []
        for point in points:
            for scenario in settings.scenarios:
                for tdp_w in settings.tdps_w:
                    sim_point = SimPoint(
                        scenario=scenario, tdp_w=tdp_w, seed=settings.seed
                    )
                    units.append((point.pdn, sim_point, point.overrides))
        results = self.sim_engine.evaluate_units(units)
        per_point = len(settings.scenarios) * len(settings.tdps_w)
        values: List[Dict[str, float]] = []
        for index in range(len(points)):
            window = results[index * per_point : (index + 1) * per_point]
            values.append(
                {
                    "power": _mean([result.average_power_w for result in window]),
                    "energy": _mean([result.total_energy_j for result in window]),
                }
            )
        return values

    # ------------------------------------------------------------------ #
    # Closed-form cost objectives
    # ------------------------------------------------------------------ #
    def _variant(self, point: DesignPoint) -> object:
        """The candidate's PDN instance for the cost models (built once)."""
        key = (point.pdn, point.overrides)
        variant = self._cost_variants.get(key)
        if variant is None:
            if point.overrides:
                parameters = self._spot.parameters.with_overrides(
                    **dict(point.overrides)
                )
                variant = build_pdn(point.pdn, parameters)
            else:
                variant = self._spot.pdn(point.pdn)
            self._cost_variants[key] = variant
        return variant

    def _cost_value(self, point: DesignPoint, objective_name: str) -> float:
        """One closed-form objective value, averaged over the TDP set."""
        pdn = self._variant(point)
        tdps_w = self.settings.tdps_w
        if objective_name == "bom":
            return _mean(
                [self._bom_model.estimate(pdn, tdp_w).total_cost for tdp_w in tdps_w]
            )
        if objective_name == "area":
            return _mean(
                [
                    self._area_model.estimate(pdn, tdp_w).total_area_mm2
                    for tdp_w in tdps_w
                ]
            )
        if objective_name == "iccmax":
            return _mean([total_iccmax_a(pdn, tdp_w) for tdp_w in tdps_w])
        raise ConfigurationError(
            f"objective {objective_name!r} has no cost-model evaluator"
        )  # pragma: no cover - registry and dispatch are kept in sync
