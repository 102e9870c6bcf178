"""The PDNspot facade.

:class:`PdnSpot` is the single entry point most users need: it owns a set of
PDN models built from one technology-parameter set and exposes the paper's
analyses as methods -- ETEE evaluation and comparison, declarative
:class:`~repro.analysis.study.Study` execution (:meth:`PdnSpot.run`),
TDP/AR/power-state sweeps, performance comparison against a baseline PDN,
battery-life power, BOM and board-area comparison.

Every evaluation is routed through a keyed memo cache over
``(parameter overrides, pdn name, operating conditions)``, so the repeated
grid points that dominate figure regeneration are computed once; see
:meth:`PdnSpot.cache_info`.

Example
-------
>>> from repro import PdnSpot
>>> spot = PdnSpot()
>>> etee = spot.compare_etee(tdp_w=4.0)  # evaluate once, compare many times
>>> etee["FlexWatts"] > etee["IVR"]
True
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.executor import EvalUnit, MemoCacheMixin, evaluate_units
from repro.analysis.resultset import Record, ResultSet
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.obs.runstats import RunStats
from repro.analysis.study import (
    OverrideKey,
    Study,
    study_resultset,
    study_units,
)
from repro.pdn import columnar as columnar_core
from repro.pdn.base import (
    OperatingConditions,
    PdnEvaluation,
    PowerDeliveryNetwork,
    conditions_key,
)
from repro.pdn.registry import available_pdns, build_pdn
from repro.power.domains import WorkloadType
from repro.power.parameters import PdnTechnologyParameters, default_parameters
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError, ReproError

if TYPE_CHECKING:  # imported on first use: the convenience models
    from repro.cost.board_area import BoardAreaModel
    from repro.cost.bom import BomModel
    from repro.perf.model import PerformanceModel, PerformanceResult
    from repro.workloads.base import Benchmark


@dataclass(frozen=True)
class CacheInfo:
    """Hit/miss statistics of a :class:`PdnSpot` evaluation cache."""

    hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


# Columnar-dispatch instruments, bound once at import time.
_COLUMNAR_BLOCKS = METRICS.counter("engine.columnar.blocks")
_COLUMNAR_BLOCK_UNITS = METRICS.counter("engine.columnar.block_units")


def _point_error(pdn_name: str, conditions: OperatingConditions, error: ReproError):
    """``error`` as its own type, prefixed with the failing point (callers
    chain it ``from error``): one bad point of a large grid says which it was."""
    return type(error)(
        f"{pdn_name} at TDP {conditions.tdp_w:g} W, "
        f"AR {conditions.application_ratio:g}, "
        f"workload {conditions.workload_type.value}, "
        f"power state {conditions.power_state.value}: {error}"
    )


class PdnSpot(MemoCacheMixin):
    """Multi-dimensional PDN exploration framework (the paper's PDNspot).

    Parameters
    ----------
    parameters:
        Technology parameters shared by every PDN model (Table 2 defaults).
    pdn_names:
        Which PDN architectures to instantiate; defaults to all five.
    baseline_name:
        The PDN used for normalisation (IVR, the state of the art).
    enable_cache:
        Whether evaluations are memoised over ``(overrides, pdn, conditions)``.
        Disabling reproduces the pre-cache evaluation cost (used by the
        benchmark harness to track the cache's speedup); results are
        identical either way because the PDN models are pure.
    columnar:
        Whether batches may be evaluated through the vectorized columnar
        core (:mod:`repro.pdn.columnar`) instead of one Python call per
        point.  Results are bit-identical either way (the per-point path is
        the reference oracle gating the columnar kernels); disabling
        reproduces the per-point evaluation cost, which the ``vectorized-
        eval`` benchmarks compare against.

    Evaluations are read-only (:class:`~repro.pdn.base.PdnEvaluation`), so
    a cache hit returns the cached evaluation itself, shared by every
    caller, rather than a copy.
    """

    #: Tags this engine's executor spans.
    engine_tag = "pdnspot"

    def __init__(
        self,
        parameters: Optional[PdnTechnologyParameters] = None,
        pdn_names: Optional[Sequence[str]] = None,
        baseline_name: str = "IVR",
        enable_cache: bool = True,
        columnar: bool = True,
    ):
        self.parameters = parameters if parameters is not None else default_parameters()
        names = list(pdn_names) if pdn_names is not None else available_pdns()
        if baseline_name not in names:
            raise ConfigurationError(
                f"baseline PDN {baseline_name!r} must be among the instantiated PDNs"
            )
        self._pdns: Dict[str, PowerDeliveryNetwork] = {
            name: build_pdn(name, self.parameters) for name in names
        }
        self._baseline_name = baseline_name
        self._cache_enabled = enable_cache
        self._cache: Dict[Tuple[object, ...], PdnEvaluation] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        # Guards the cache mapping, its hit/miss counters and the variant
        # table: concurrent evaluate calls from user threads must not lose
        # counter updates or race dict growth.
        self._cache_lock = threading.Lock()
        self._columnar = bool(columnar)
        #: Parameter-override PDN variants, keyed by (overrides, pdn name).
        self._variants: Dict[Tuple[OverrideKey, str], PowerDeliveryNetwork] = {}

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def pdns(self) -> Dict[str, PowerDeliveryNetwork]:
        """The instantiated PDN models, keyed by name."""
        return dict(self._pdns)

    @property
    def baseline(self) -> PowerDeliveryNetwork:
        """The baseline PDN used for normalisation."""
        return self._pdns[self._baseline_name]

    def pdn(self, name: str) -> PowerDeliveryNetwork:
        """Return one PDN model by name."""
        if name not in self._pdns:
            raise ConfigurationError(
                f"PDN {name!r} is not instantiated; available: {', '.join(self._pdns)}"
            )
        return self._pdns[name]

    # ------------------------------------------------------------------ #
    # Cached evaluation engine
    # ------------------------------------------------------------------ #
    @property
    def cache_enabled(self) -> bool:
        """Whether evaluations are memoised (fixed at construction)."""
        return self._cache_enabled

    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the evaluation cache."""
        with self._cache_lock:
            return CacheInfo(
                hits=self._cache_hits, misses=self._cache_misses, size=len(self._cache)
            )

    def clear_cache(self) -> None:
        """Drop every memoised evaluation (statistics reset too)."""
        with self._cache_lock:
            self._cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0

    def cache_key(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> Tuple[object, ...]:
        """The memo-cache key of one evaluation unit."""
        return (overrides, pdn_name, conditions_key(conditions))

    # cache_lookup_many / cache_install_many come from MemoCacheMixin.

    def _variant_pdn(self, name: str, overrides: OverrideKey) -> PowerDeliveryNetwork:
        """The PDN instance for one parameter-override set (built once)."""
        if not overrides:
            return self.pdn(name)
        self.pdn(name)  # validate the name against the instantiated set
        key = (overrides, name)
        with self._cache_lock:
            variant = self._variants.get(key)
        if variant is not None:
            return variant
        parameters = self.parameters.with_overrides(**dict(overrides))
        variant = build_pdn(name, parameters)
        with self._cache_lock:
            # Two racing builders produce equivalent models; first one wins.
            return self._variants.setdefault(key, variant)

    def evaluate_uncached(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> PdnEvaluation:
        """Evaluate one PDN at one operating point, bypassing the memo cache.

        The :class:`~repro.analysis.executor.EvaluationEngine` protocol's
        single-unit compute seam (the reference oracle the columnar path is
        gated against): :meth:`evaluate` lands here, and so does every batch
        unit of a ``columnar=False`` engine.  The dispatch path owns the
        cache interaction (:meth:`cache_lookup_many` /
        :meth:`cache_install_many`), so neither the mapping nor the counters
        are touched here.  Not public sugar -- use :meth:`evaluate` or
        :meth:`evaluate_units`.

        A model error is re-raised as its own type, chained, with a prefix
        naming the failing point.
        """
        pdn = self._variant_pdn(pdn_name, overrides)
        try:
            return pdn.evaluate(conditions)
        except ReproError as error:
            raise _point_error(pdn_name, conditions, error) from error

    def _evaluate_cached(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> PdnEvaluation:
        """Evaluate one PDN at one operating point through the memo cache.

        The cache sees a batch of one: one lookup and, on a miss, one
        install.
        """
        if not self._cache_enabled:
            return self.evaluate_uncached(pdn_name, conditions, overrides)
        keys = [self.cache_key(pdn_name, conditions, overrides)]
        cached = self.cache_lookup_many(keys)[0]
        if cached is not None:
            return cached
        evaluation = self.evaluate_uncached(pdn_name, conditions, overrides)
        return self.cache_install_many(keys, [evaluation])[0]

    # ------------------------------------------------------------------ #
    # Columnar batches (the vectorized half of the engine protocol)
    # ------------------------------------------------------------------ #
    def evaluate_columns(
        self, units: Sequence[EvalUnit]
    ) -> Optional[List[PdnEvaluation]]:
        """Evaluate a batch of units through the vectorized columnar core.

        Units are grouped into ``(pdn name, overrides)`` column blocks and
        each block is computed in one NumPy pass per metric
        (:func:`repro.pdn.columnar.evaluate_columns`); the column layout is
        shared between blocks over the same conditions, so a five-PDN study
        grid builds its :class:`~repro.pdn.columnar.ConditionsBatch` once.
        Results are returned in unit order and are bit-identical to
        :meth:`evaluate_uncached` per unit.

        A block with a point its model rejects raises the model's error for
        the block's first failing point, prefixed and chained exactly as
        :meth:`evaluate_uncached` raises it.  Returns ``None`` -- declining
        the batch to the per-point seam -- only when the engine was built
        with ``columnar=False``.
        """
        if not self._columnar:
            return None
        unit_list = list(units)
        if not unit_list:
            return []
        groups: Dict[Tuple[str, OverrideKey], List[int]] = {}
        for index, (name, _, overrides) in enumerate(unit_list):
            groups.setdefault((name, overrides), []).append(index)
        results: List[Optional[PdnEvaluation]] = [None] * len(unit_list)
        # One ConditionsBatch per distinct conditions sequence: study grids
        # evaluate every PDN over the same points, so the column layout is
        # built once and shared by all five blocks.  Identity keys are safe
        # here -- the conditions objects are pinned by unit_list for the
        # whole call.
        batches: Dict[Tuple[int, ...], columnar_core.ConditionsBatch] = {}
        for (name, overrides), indices in groups.items():
            conditions = [unit_list[i][1] for i in indices]
            layout_key = tuple(map(id, conditions))
            if layout_key in batches:
                batch = batches[layout_key]
            else:
                batch = columnar_core.ConditionsBatch.from_conditions(conditions)
                batches[layout_key] = batch
            with obs_trace.span("engine.columnar_block", category="engine",
                                pdn=name, units=len(indices)):
                evaluations = columnar_core.evaluate_columns(
                    self._variant_pdn(name, overrides),
                    conditions,
                    batch=batch,
                    wrap_error=partial(_point_error, name),
                )
            _COLUMNAR_BLOCKS.inc()
            _COLUMNAR_BLOCK_UNITS.inc(len(indices))
            for index, evaluation in zip(indices, evaluations):
                results[index] = evaluation
        return results

    def _evaluate_instance(
        self, pdn: PowerDeliveryNetwork, conditions: OperatingConditions
    ) -> PdnEvaluation:
        """Cached evaluator for collaborators that hold PDN instances."""
        if pdn is self._pdns.get(pdn.name):
            return self._evaluate_cached(pdn.name, conditions)
        return pdn.evaluate(conditions)

    def evaluate_units(self, units: Iterable[EvalUnit]) -> List[PdnEvaluation]:
        """Evaluate ``(pdn_name, conditions, overrides)`` units, in order.

        **The** public batch entry point: every grid workload (studies,
        figure drivers, the optimizer, the evaluation service) reduces to
        this call.  It deduplicates, serves cached units, hands the misses
        to :meth:`evaluate_columns` as one batch (per point when this engine
        declines it), merges the results back into this engine's cache and
        returns the evaluations in canonical unit order, with the seed's
        bit-identical results and cache accounting (see
        :func:`repro.analysis.executor.evaluate_units`).
        """
        return evaluate_units(self, units)

    def run(self, study: Study) -> ResultSet:
        """Execute a declarative :class:`Study` and return its results.

        Scenarios are evaluated in grid order against every instantiated PDN
        (or the study's ``pdn_names`` restriction); parameter-override
        scenarios evaluate against variant models built from
        ``self.parameters.with_overrides(...)``.  All evaluations go through
        the memo cache, so overlapping studies share work.
        """
        started = time.perf_counter()
        before = self.cache_info()
        names = study.pdn_names if study.pdn_names is not None else tuple(self._pdns)
        for name in names:
            self.pdn(name)  # fail fast on unknown PDNs
        with obs_trace.span("engine.grid", category="engine",
                            scenarios=len(study.scenarios)):
            units = study_units(study, names)
        with obs_trace.span("engine.run", category="engine",
                            study=study.name, units=len(units)):
            evaluations = self.evaluate_units(units)
        with obs_trace.span("engine.assemble", category="engine", units=len(units)):
            results = study_resultset(study, names, evaluations)
        after = self.cache_info()
        results.run_stats = RunStats(
            units=len(units),
            duration_s=time.perf_counter() - started,
            cache_hits=after.hits - before.hits,
            cache_misses=after.misses - before.misses,
        )
        return results

    # ------------------------------------------------------------------ #
    # ETEE evaluation
    # ------------------------------------------------------------------ #
    def evaluate(
        self,
        pdn_name: str,
        conditions: OperatingConditions,
        overrides: OverrideKey = (),
    ) -> PdnEvaluation:
        """Evaluate one PDN at an explicit operating point (cached).

        The public single-point entry; for many points use
        :meth:`evaluate_units`, which can evaluate whole batches in one
        vectorized pass.
        """
        return self._evaluate_cached(pdn_name, conditions, overrides)

    def compare_etee(
        self,
        tdp_w: float,
        application_ratio: float = 0.56,
        workload_type: WorkloadType = WorkloadType.CPU_MULTI_THREAD,
    ) -> Dict[str, float]:
        """ETEE of every instantiated PDN at one active operating point."""
        conditions = OperatingConditions.for_active_workload(
            tdp_w, application_ratio, workload_type
        )
        return {
            name: self._evaluate_cached(name, conditions).etee for name in self._pdns
        }

    def compare_power_state_etee(
        self, tdp_w: float, power_state: PackageCState
    ) -> Dict[str, float]:
        """ETEE of every instantiated PDN in one package power state."""
        conditions = OperatingConditions.for_power_state(tdp_w, power_state)
        return {
            name: self._evaluate_cached(name, conditions).etee for name in self._pdns
        }

    # ------------------------------------------------------------------ #
    # Sweeps (thin wrappers over the Study engine)
    # ------------------------------------------------------------------ #
    def tdp_sweep(
        self,
        tdps_w: Sequence[float],
        application_ratio: float = 0.56,
        workload_type: WorkloadType = WorkloadType.CPU_MULTI_THREAD,
    ) -> List[Record]:
        """ETEE sweep over TDP for every instantiated PDN."""
        return self.run(
            Study.over_tdps(tdps_w, application_ratio, workload_type)
        ).to_records()

    def application_ratio_sweep(
        self,
        application_ratios: Sequence[float],
        tdp_w: float,
        workload_type: WorkloadType = WorkloadType.CPU_MULTI_THREAD,
    ) -> List[Record]:
        """ETEE sweep over application ratio for every instantiated PDN."""
        return self.run(
            Study.over_application_ratios(application_ratios, tdp_w, workload_type)
        ).to_records()

    def power_state_sweep(self, tdp_w: float) -> List[Record]:
        """ETEE sweep over the battery-life power states."""
        return self.run(Study.over_power_states(tdp_w)).to_records()

    # ------------------------------------------------------------------ #
    # Performance, battery life, cost, area
    # ------------------------------------------------------------------ #
    @cached_property
    def _performance_model(self) -> PerformanceModel:
        from repro.perf.model import PerformanceModel

        return PerformanceModel(
            self._pdns[self._baseline_name], evaluator=self._evaluate_instance
        )

    @cached_property
    def _bom_model(self) -> BomModel:
        from repro.cost.bom import BomModel

        return BomModel()

    @cached_property
    def _area_model(self) -> BoardAreaModel:
        from repro.cost.board_area import BoardAreaModel

        return BoardAreaModel()

    def performance(
        self, pdn_name: str, benchmark: Benchmark, tdp_w: float
    ) -> PerformanceResult:
        """Relative performance of a benchmark on one PDN (baseline-normalised)."""
        return self._performance_model.evaluate(self.pdn(pdn_name), benchmark, tdp_w)

    def compare_performance(
        self, benchmarks: Iterable[Benchmark], tdp_w: float
    ) -> Dict[str, float]:
        """Suite-average relative performance of every PDN at one TDP."""
        return self._performance_model.compare_pdns(
            self._pdns.values(), benchmarks, tdp_w
        )

    def compare_battery_life_power(self, tdp_w: float = 18.0) -> Dict[str, Dict[str, float]]:
        """Average power of the four battery-life workloads on every PDN.

        Returns workload name -> PDN name -> average supply power (watts).
        """
        from repro.workloads.battery_life import BATTERY_LIFE_WORKLOADS

        table: Dict[str, Dict[str, float]] = {}
        for workload in BATTERY_LIFE_WORKLOADS:
            table[workload.name] = {
                name: workload.average_power_w(
                    pdn, tdp_w, evaluate=self._evaluate_instance
                )
                for name, pdn in self._pdns.items()
            }
        return table

    def compare_bom(self, tdp_w: float) -> Dict[str, float]:
        """Normalised BOM of every PDN at one TDP (Fig. 8d)."""
        return self._bom_model.compare(
            self._pdns.values(), tdp_w, reference_name=self._baseline_name
        )

    def compare_board_area(self, tdp_w: float) -> Dict[str, float]:
        """Normalised board area of every PDN at one TDP (Fig. 8e)."""
        return self._area_model.compare(
            self._pdns.values(), tdp_w, reference_name=self._baseline_name
        )
