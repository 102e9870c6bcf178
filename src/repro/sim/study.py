"""Declarative trace-driven simulation studies on the executor engine.

The analytic half of the library evaluates :class:`~repro.analysis.study.Study`
grids through :meth:`PdnSpot.run`; this module gives the *dynamic* half the
same shape.  A :class:`SimStudy` is a grid of :class:`SimPoint` operating
points -- ``scenario x TDP x seed``, optionally crossed with
technology-parameter overrides -- and :func:`run_sim` (or
:meth:`SimEngine.run`) evaluates it into a
:class:`~repro.analysis.resultset.ResultSet`, one summary row per
``(scenario, pdn)`` simulation.

:class:`SimEngine` implements the same execution-engine protocol as
:class:`~repro.analysis.pdnspot.PdnSpot` (see
:mod:`repro.analysis.executor`), so simulation grids dispatch through the
unchanged ``SerialExecutor`` / ``ThreadExecutor`` / ``ProcessExecutor``
backends: work units are picklable ``(pdn name, SimPoint, overrides)``
references (workers rebuild traces from the scenario registry and the PDN
models from the parameter set), results are memo-cached and merged back, and
the :class:`ResultSet` is reassembled in canonical grid order -- a parallel
run is bit-identical to the serial one, matching the analytic engine's
guarantee.

Example
-------
>>> from repro.sim.study import SimStudy, run_sim
>>> study = SimStudy.over_scenarios(["duty-cycled-background"], tdps_w=[18.0])
>>> serial = run_sim(study)
>>> parallel = run_sim(study, executor="thread", jobs=2)
>>> serial == parallel
True
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.executor import (
    ExecutorLike,
    SerialExecutor,
    TwoTierCacheMixin,
    make_executor,
)
from repro.analysis.pdnspot import CacheInfo, PdnSpot
from repro.cache import (
    DiskCache,
    DiskCacheLike,
    canonical_key,
    parameters_fingerprint,
    resolve_disk_cache,
)
from repro.analysis.resultset import Record, ResultSet
from repro.analysis.study import OverrideKey, _flatten, _freeze_overrides
from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_switching import ModeSwitchController
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.obs.runstats import RunStats, executor_label
from repro.pdn import columnar as columnar_core
from repro.pdn.base import OperatingConditions, PdnEvaluation, conditions_key
from repro.power.parameters import PdnTechnologyParameters
from repro.sim.adapters import simulation_record
from repro.sim.engine import IntervalSimulator, PointKey, SimulationResult
from repro.util.errors import ConfigurationError
from repro.workloads.base import WorkloadTrace
from repro.workloads.scenarios import DEFAULT_SEED, build_scenario_trace, get_scenario

#: One tick per :meth:`SimEngine.evaluate_columns` batch.
_SIM_PREFILL_BATCHES = METRICS.counter("sim.prefill_batches")


@dataclass(frozen=True)
class SimPoint:
    """One simulation operating point of a :class:`SimStudy` grid.

    A point is a *reference*, not a trace: ``(scenario, seed)`` rebuilds the
    identical trace in any process through the scenario registry, which is
    what makes the point picklable and memo-cacheable.
    """

    scenario: str
    tdp_w: float
    seed: int = DEFAULT_SEED
    trace_period_s: float = 1.0
    overrides: OverrideKey = ()

    def __post_init__(self) -> None:
        """Validate the scenario name and the numeric axes fail-fast."""
        get_scenario(self.scenario)  # unknown names fail at build, not dispatch
        if self.tdp_w <= 0.0:
            raise ConfigurationError(f"tdp_w must be positive, got {self.tdp_w!r}")
        if self.trace_period_s <= 0.0:
            raise ConfigurationError(
                f"trace_period_s must be positive, got {self.trace_period_s!r}"
            )

    def record_fields(self) -> Record:
        """The point's identifying record fields (summary-row layout)."""
        fields: Record = {
            "scenario": self.scenario,
            "tdp_w": self.tdp_w,
            "seed": self.seed,
        }
        if self.trace_period_s != 1.0:
            fields["trace_period_s"] = self.trace_period_s
        if self.overrides:
            fields["parameters"] = dict(self.overrides)
        return fields


@dataclass(frozen=True)
class SimStudy:
    """A named, ordered grid of :class:`SimPoint` simulations.

    Attributes
    ----------
    name:
        Label carried into the produced :class:`ResultSet`.
    points:
        The grid points, in evaluation order.
    pdn_names:
        Optional restriction of the PDN architectures to simulate; ``None``
        means "every PDN the evaluating engine has".
    """

    name: str
    points: Tuple[SimPoint, ...]
    pdn_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        """Reject nameless or empty studies."""
        if not self.name:
            raise ConfigurationError("a simulation study needs a non-empty name")
        if not self.points:
            raise ConfigurationError(f"sim study {self.name!r} has no points")

    def __len__(self) -> int:
        """Number of grid points (simulations per PDN)."""
        return len(self.points)

    @staticmethod
    def builder(name: str = "sim-study") -> "SimStudyBuilder":
        """Start a fluent :class:`SimStudyBuilder`."""
        return SimStudyBuilder(name)

    @classmethod
    def over_scenarios(
        cls,
        scenarios: Sequence[str],
        tdps_w: Sequence[float] = (18.0,),
        seed: int = DEFAULT_SEED,
        name: str = "scenario-sweep",
    ) -> "SimStudy":
        """A scenario x TDP grid at one seed (the common CLI shape)."""
        return (
            cls.builder(name).scenarios(*scenarios).tdps(*tdps_w).seeds(seed).build()
        )


class SimStudyBuilder:
    """Fluent builder of :class:`SimStudy` grids.

    Grid order is deterministic -- parameter overrides, then scenario, then
    TDP, then seed -- mirroring the axis nesting of the analytic
    :class:`~repro.analysis.study.StudyBuilder`.
    """

    def __init__(self, name: str = "sim-study"):
        self._name = name
        self._scenarios: List[str] = []
        self._tdps_w: List[float] = []
        self._seeds: List[int] = []
        self._trace_period_s = 1.0
        self._parameter_grid: List[Dict[str, object]] = []
        self._pdn_names: Optional[List[str]] = None

    def scenarios(self, *names: Union[str, Sequence[str]]) -> "SimStudyBuilder":
        """Add scenario names (validated against the registry at build)."""
        self._scenarios.extend(str(name) for name in _flatten(names))
        return self

    def tdps(self, *tdps_w: Union[float, Sequence[float]]) -> "SimStudyBuilder":
        """Add TDP levels (watts) to the grid."""
        self._tdps_w.extend(float(value) for value in _flatten(tdps_w))
        return self

    def seeds(self, *seeds: Union[int, Sequence[int]]) -> "SimStudyBuilder":
        """Add trace seeds to the grid (one trace variant per seed)."""
        self._seeds.extend(int(value) for value in _flatten(seeds))
        return self

    def trace_period(self, trace_period_s: float) -> "SimStudyBuilder":
        """Set the residency period for phases without explicit durations."""
        self._trace_period_s = float(trace_period_s)
        return self

    def parameter_grid(self, *overrides: Mapping[str, object]) -> "SimStudyBuilder":
        """Cross the grid with technology-parameter override sets."""
        self._parameter_grid.extend(dict(override) for override in overrides)
        return self

    def pdns(self, *names: Union[str, Sequence[str]]) -> "SimStudyBuilder":
        """Restrict the study to the named PDN architectures."""
        if self._pdn_names is None:
            self._pdn_names = []
        self._pdn_names.extend(str(name) for name in _flatten(names))
        return self

    def build(self) -> SimStudy:
        """Materialise the grid into an immutable :class:`SimStudy`."""
        if not self._scenarios:
            raise ConfigurationError(
                f"sim study {self._name!r} needs at least one scenario"
            )
        tdps_w = self._tdps_w or [18.0]
        seeds = self._seeds or [DEFAULT_SEED]
        override_grid: List[OverrideKey] = [
            _freeze_overrides(overrides) for overrides in self._parameter_grid
        ] or [()]
        points: List[SimPoint] = []
        for overrides in override_grid:
            for scenario in self._scenarios:
                for tdp_w in tdps_w:
                    for seed in seeds:
                        points.append(
                            SimPoint(
                                scenario=scenario,
                                tdp_w=tdp_w,
                                seed=seed,
                                trace_period_s=self._trace_period_s,
                                overrides=overrides,
                            )
                        )
        return SimStudy(
            name=self._name,
            points=tuple(points),
            pdn_names=tuple(self._pdn_names) if self._pdn_names is not None else None,
        )


@dataclass(frozen=True)
class SimWorkerConfig:
    """A picklable recipe for rebuilding a :class:`SimEngine` in a worker."""

    parameters: PdnTechnologyParameters
    pdn_names: Tuple[str, ...]
    baseline_name: str

    def build_engine(self) -> "SimEngine":
        """Build the worker-local (uncached) simulation engine."""
        return SimEngine(
            parameters=self.parameters,
            pdn_names=list(self.pdn_names),
            baseline_name=self.baseline_name,
            enable_cache=False,
        )


def _copy_result(result: SimulationResult) -> SimulationResult:
    """A caller-owned copy of a cached simulation result.

    ``SimulationResult`` is mutable (its record list and counters); handing
    the cached master to callers would let one caller's mutation corrupt
    every later cache hit.  The records themselves are frozen, so a shallow
    list copy suffices.
    """
    return replace(result, phase_records=list(result.phase_records))


class _ModeTable:
    """Supply power of one FlexWatts variant at a batch's points, by mode.

    Every point's Algorithm-1 mode is predicted up front, and the point is
    evaluated in that mode: from the engine's cross-run mode memo when it is
    there, otherwise in one columnar pass per mode (per point if the model
    declines columns).  The other mode is needed only at residency-guard
    vetoes and switch-energy lookups; it comes from the engine's per-point
    hook on demand.  :meth:`commit` installs into the memo exactly the
    predicted-mode evaluations the replays read, so the memo grows as the
    per-unit path would have grown it.
    """

    def __init__(
        self,
        engine: "SimEngine",
        overrides: OverrideKey,
        conditions: Sequence[OperatingConditions],
        points: Sequence[int],
    ):
        self._pdn = pdn = FlexWattsPdn(
            parameters=engine._parameters_for(overrides),
            predictor=engine._predictor_for(overrides),
        )
        self._conditions = conditions
        self._overrides = overrides
        self._hook = engine._make_mode_evaluator(overrides)
        self._memo = engine._mode_evaluations if engine.cache_enabled else None
        #: Algorithm-1 mode of every point (the replay's ``predict``).
        self.modes: Dict[int, PdnMode] = {
            point: pdn.predict_mode(conditions[point]) for point in points
        }
        self._predicted: Dict[int, PdnEvaluation] = {}
        pending: Dict[PdnMode, List[int]] = {}
        for point, mode in self.modes.items():
            cached = None
            if self._memo is not None:
                cached = self._memo.get(self._memo_key(point, mode))
            if cached is None:
                pending.setdefault(mode, []).append(point)
            else:
                self._predicted[point] = cached
        for mode, group in pending.items():
            at = [conditions[point] for point in group]
            evaluations = columnar_core.evaluate_columns(pdn, at, mode=mode)
            if evaluations is None:
                evaluations = [pdn.evaluate_in_mode(c, mode) for c in at]
            self._predicted.update(zip(group, evaluations))
        self._read: Dict[Tuple[PdnMode, int], PdnEvaluation] = {}

    def _memo_key(self, point: int, mode: PdnMode) -> Tuple[object, ...]:
        return (self._overrides, mode, conditions_key(self._conditions[point]))

    def supply_power(self, point: int, mode: PdnMode) -> float:
        """Supply power at one point in ``mode`` (the replay's lookup)."""
        key = (mode, point)
        evaluation = self._read.get(key)
        if evaluation is None:
            if mode is self.modes[point]:
                evaluation = self._predicted[point]
            elif self._hook is not None:
                evaluation = self._hook(self._pdn, self._conditions[point], mode)
            else:
                evaluation = self._pdn.evaluate_in_mode(self._conditions[point], mode)
            self._read[key] = evaluation
        return evaluation.supply_power_w

    def commit(self) -> None:
        """Install the predicted-mode evaluations the replays read."""
        if self._memo is None:
            return
        for (mode, point), evaluation in self._read.items():
            if mode is self.modes[point]:
                self._memo.setdefault(self._memo_key(point, mode), evaluation)


class SimEngine(TwoTierCacheMixin):
    """Memo-cached, executor-compatible trace-simulation engine.

    The engine owns a :class:`~repro.analysis.pdnspot.PdnSpot` (PDN models,
    technology parameters, and the *phase-level* evaluation cache that serves
    operating points repeated across traces and scenarios) plus a
    *simulation-level* memo cache keyed by
    ``(overrides, pdn name, SimPoint)``.  It implements the execution-engine
    protocol of :mod:`repro.analysis.executor`, so
    :meth:`run` accepts the same ``executor=``/``jobs=`` arguments as
    :meth:`PdnSpot.run` and parallel results are bit-identical to serial.

    Parameters
    ----------
    parameters:
        Technology parameters shared by every PDN model (Table 2 defaults).
    pdn_names:
        Which PDN architectures to simulate; defaults to all five.
    baseline_name:
        The PDN used for normalisation (IVR, the state of the art).
    enable_cache:
        Whether simulations (and phase evaluations) are memoised.  Worker
        processes disable it -- their units are already deduplicated.
    disk_cache:
        Optional second cache tier.  A cache-directory path attaches *two*
        stores rooted there: one for this engine's simulation results
        (namespace ``"sim"``) and one for the phase-level operating-point
        evaluations of the backing analytic engine (namespace
        ``"pdnspot"``), so a warm directory serves whole simulations and
        still accelerates partially overlapping grids.  Disk addresses
        additionally digest the trace *content* rebuilt from the scenario
        registry, so a re-registered generator (same name, different trace)
        invalidates its entries rather than replaying stale results.  A
        pre-built :class:`~repro.cache.DiskCache` instance attaches to the
        simulation tier only.  Requires ``enable_cache=True``.
    """

    def __init__(
        self,
        parameters: Optional[PdnTechnologyParameters] = None,
        pdn_names: Optional[Sequence[str]] = None,
        baseline_name: str = "IVR",
        enable_cache: bool = True,
        disk_cache: DiskCacheLike = None,
    ):
        if disk_cache is not None and not enable_cache:
            raise ConfigurationError(
                "disk_cache requires enable_cache=True: the disk tier sits "
                "behind the memo cache"
            )
        self._spot = PdnSpot(
            parameters=parameters,
            pdn_names=pdn_names,
            baseline_name=baseline_name,
            enable_cache=enable_cache,
            disk_cache=disk_cache if not isinstance(disk_cache, DiskCache) else None,
        )
        self._disk_cache = resolve_disk_cache(
            disk_cache,
            namespace="sim",
            fingerprint=parameters_fingerprint(self._spot.parameters),
        )
        #: Trace-content digests keyed by (scenario, seed): part of the
        #: *disk* address of every simulation, so a re-registered scenario
        #: generator (same name, different trace) can never replay another
        #: generator's persisted results.  In-memory keys stay name-based --
        #: the registry is fixed within a process.
        self._trace_digests: Dict[Tuple[str, int], str] = {}
        self._baseline_name = baseline_name
        self._cache_enabled = enable_cache
        self._cache: Dict[Tuple[object, ...], SimulationResult] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_lock = threading.Lock()
        #: Calibrated Algorithm-1 predictors, keyed by parameter overrides.
        #: Model state rather than an evaluation memo: kept even with the
        #: cache disabled (mirroring the analytic engine, whose primed PDN
        #: models survive ``enable_cache=False``) and across clear_cache().
        self._predictors: Dict[OverrideKey, object] = {}
        #: Mode-forced FlexWatts evaluations shared across runs, keyed by
        #: (overrides, mode, operating point).  The models are pure, so a
        #: racing double-compute is benign; setdefault keeps one master.
        #: Subject to ``enable_cache`` and dropped by :meth:`clear_cache`.
        self._mode_evaluations: Dict[Tuple[object, ...], PdnEvaluation] = {}

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def spot(self) -> PdnSpot:
        """The analytic engine backing the phase-level evaluations."""
        return self._spot

    @property
    def parameters(self) -> PdnTechnologyParameters:
        """The technology parameters shared by every PDN model."""
        return self._spot.parameters

    # ------------------------------------------------------------------ #
    # Execution-engine protocol (see repro.analysis.executor)
    # ------------------------------------------------------------------ #
    @property
    def cache_enabled(self) -> bool:
        """Whether simulations are memoised (fixed at construction)."""
        return self._cache_enabled

    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the simulation memo cache."""
        with self._cache_lock:
            return CacheInfo(
                hits=self._cache_hits, misses=self._cache_misses, size=len(self._cache)
            )

    def clear_cache(self) -> None:
        """Drop every memoised simulation and phase evaluation.

        The simulation memo, its statistics, the cross-run mode-evaluation
        memo and the backing analytic engine's phase cache are all cleared;
        calibrated predictors are model state and survive (rebuild the engine
        to drop those).  Attached disk stores also survive -- use
        :meth:`DiskCache.prune` to reclaim them.
        """
        with self._cache_lock:
            self._cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0
            self._mode_evaluations.clear()
        self._spot.clear_cache()

    def cache_key(
        self, pdn_name: str, point: SimPoint, overrides: OverrideKey = ()
    ) -> Tuple[object, ...]:
        """The memo-cache key of one simulation unit."""
        return (overrides, pdn_name, point)

    @property
    def disk_cache(self) -> Optional[DiskCache]:
        """The attached simulation-result store (second cache tier), if any."""
        return self._disk_cache

    def _disk_key(self, key: Tuple[object, ...]) -> Tuple[object, ...]:
        """The on-disk address of one simulation: the memo key + trace digest.

        The memo key references the trace by ``(scenario, seed)`` *name*,
        which is sound in-process (the registry cannot change under a run)
        but not across runs: a user can re-register a scenario generator
        and re-run against the same cache directory.  Digesting the actual
        trace content into the disk address makes such entries invisible
        instead of stale -- at the cost of one trace rebuild per
        ``(scenario, seed)`` per process, which is noise next to a
        simulation.
        """
        point = key[2]
        ident = (point.scenario, point.seed)
        with self._cache_lock:
            digest = self._trace_digests.get(ident)
        if digest is None:
            trace = build_scenario_trace(point.scenario, seed=point.seed)
            digest = hashlib.sha256(
                canonical_key(trace).encode("utf-8")
            ).hexdigest()[:16]
            with self._cache_lock:
                digest = self._trace_digests.setdefault(ident, digest)
        return (*key, ("trace", digest))

    # Two-tier cache_lookup / cache_install come from TwoTierCacheMixin
    # (with _disk_key above adding the trace digest to disk addresses).
    _payload_type = SimulationResult
    _copy_cached = staticmethod(_copy_result)

    def worker_config(self) -> SimWorkerConfig:
        """The picklable recipe process-pool workers rebuild this engine from."""
        return SimWorkerConfig(
            parameters=self.parameters,
            pdn_names=tuple(self._spot.pdns),
            baseline_name=self._baseline_name,
        )

    def prime_for_execution(self, units: Iterable[Tuple[str, SimPoint, OverrideKey]]) -> None:
        """Build every lazily built model the units need, up front.

        Thread-pool workers treat the engine as read-only apart from the
        locked caches; the expensive lazy state -- the FlexWatts Algorithm-1
        predictor calibration, per override set -- is forced here on the
        calling thread before any worker runs.
        """
        for name, _, overrides in units:
            if name == FlexWattsPdn.name:
                self._predictor_for(overrides)

    def evaluate_uncached(
        self, pdn_name: str, point: SimPoint, overrides: OverrideKey = ()
    ) -> SimulationResult:
        """Simulate one scenario on one PDN, bypassing the simulation memo.

        The trace is rebuilt from the scenario registry (deterministic for a
        given seed), the simulator batches its phases by operating point, and
        static-PDN phase evaluations route through the engine's analytic
        cache so operating points shared *between* scenarios are computed
        once.  FlexWatts runs get a fresh mode-switch controller per
        simulation -- adaptive state never leaks between grid points.
        """
        trace = build_scenario_trace(point.scenario, seed=point.seed)
        simulator = IntervalSimulator(
            tdp_w=point.tdp_w, trace_period_s=point.trace_period_s
        )
        if pdn_name == FlexWattsPdn.name:
            pdn = FlexWattsPdn(
                parameters=self._parameters_for(overrides),
                predictor=self._predictor_for(overrides),
                switch_controller=ModeSwitchController(),
            )
            return simulator.run(
                trace, pdn, evaluate_in_mode=self._make_mode_evaluator(overrides)
            )
        pdn = self._spot.pdn(pdn_name)

        def evaluate(
            instance: object, conditions: OperatingConditions
        ) -> PdnEvaluation:
            """Serve the phase through the shared analytic memo cache."""
            return self._spot.evaluate(pdn_name, conditions, overrides)

        return simulator.run(trace, pdn, evaluate=evaluate)

    @property
    def columnar_enabled(self) -> bool:
        """Always ``False``: executors keep per-unit shard planning.

        The flag asks executors to regroup tasks into ``(pdn, overrides)``
        column blocks of at least
        :data:`~repro.analysis.executor.MIN_COLUMNAR_CHUNK` units.  One
        simulation unit is a whole trace replay, so that cap would collapse
        any realistic grid into one shard; simulations keep the historical
        plan (input order, up to ``jobs`` chunks), and :meth:`evaluate_columns`
        still takes every chunk as one batch.
        """
        return False

    def evaluate_columns(
        self, units: Sequence[Tuple[str, SimPoint, OverrideKey]]
    ) -> Optional[List[SimulationResult]]:
        """Simulate a batch of units in one pass over their distinct phase points.

        1. Each ``(scenario, seed)`` trace is built once, and every
           non-zero-duration phase is mapped to its operating point through a
           memo that lives only for this batch.
        2. Every static-PDN point goes through one
           :meth:`PdnSpot.evaluate_units` call: columnar, counted by the
           phase-level cache and written through to its disk tier.
        3. Each FlexWatts point is evaluated, in columns, in the mode the
           Algorithm-1 predictor picks for it (:class:`_ModeTable`).
        4. Every trace is replayed against these tables
           (:meth:`IntervalSimulator.replay`); only the switch scan loops.

        Results are in unit order and bit-identical to
        :meth:`evaluate_uncached` per unit.
        """
        unit_list = list(units)
        if not unit_list:
            return []
        with obs_trace.span("sim.phase_batch", category="sim",
                            units=len(unit_list)) as batch_span:
            traces: Dict[Tuple[str, int], WorkloadTrace] = {}
            memo: Dict[PointKey, int] = {}
            conditions: List[OperatingConditions] = []
            plans = []
            for _, point, _ in unit_list:
                ident = (point.scenario, point.seed)
                trace = traces.get(ident)
                if trace is None:
                    trace = traces[ident] = build_scenario_trace(
                        point.scenario, seed=point.seed
                    )
                simulator = IntervalSimulator(
                    tdp_w=point.tdp_w, trace_period_s=point.trace_period_s
                )
                plans.append(
                    (simulator, trace, *simulator.phase_points(trace, memo, conditions))
                )
            tables = self._phase_tables(unit_list, plans, conditions)
            batch_span.set("points", len(conditions))
        _SIM_PREFILL_BATCHES.inc()
        results: List[SimulationResult] = []
        for (name, _, overrides), plan in zip(unit_list, plans):
            simulator, trace, durations_s, points = plan
            table = tables[(name, overrides)]
            if isinstance(table, _ModeTable):
                result = simulator.replay(
                    trace, name, durations_s, points, conditions,
                    table.supply_power,
                    controller=ModeSwitchController(),
                    predict=table.modes.__getitem__,
                )
            else:
                result = simulator.replay(
                    trace, name, durations_s, points, conditions,
                    lambda point, mode, powers=table: powers[point],
                )
            results.append(result)
        for table in tables.values():
            if isinstance(table, _ModeTable):
                table.commit()
        return results

    def _phase_tables(
        self,
        unit_list: Sequence[Tuple[str, SimPoint, OverrideKey]],
        plans: Sequence[Tuple[object, ...]],
        conditions: Sequence[OperatingConditions],
    ) -> Dict[Tuple[str, OverrideKey], object]:
        """Per ``(pdn, overrides)``: the power of every point its traces reach.

        Static PDNs get a ``{point: supply power}`` dict, all filled by one
        analytic-engine call; FlexWatts variants get a :class:`_ModeTable`.
        """
        wanted: Dict[Tuple[str, OverrideKey], Dict[int, None]] = {}
        for (name, _, overrides), plan in zip(unit_list, plans):
            wanted.setdefault((name, overrides), {}).update(dict.fromkeys(plan[3]))
        for points in wanted.values():
            points.pop(-1, None)  # zero-duration phases reach no point
        static = [key for key in wanted if key[0] != FlexWattsPdn.name]
        evaluations = iter(self._spot.evaluate_units(
            (name, conditions[point], overrides)
            for name, overrides in static
            for point in wanted[(name, overrides)]
        ))
        tables: Dict[Tuple[str, OverrideKey], object] = {
            key: {point: next(evaluations).supply_power_w for point in wanted[key]}
            for key in static
        }
        for key, points in wanted.items():
            if key[0] == FlexWattsPdn.name:
                tables[key] = _ModeTable(self, key[1], conditions, list(points))
        return tables

    def evaluate(
        self, pdn_name: str, point: SimPoint, overrides: OverrideKey = ()
    ) -> SimulationResult:
        """Simulate one scenario on one PDN (cached).

        The public single-point entry, mirroring :meth:`PdnSpot.evaluate`;
        for many points use :meth:`evaluate_units`.
        """
        if not self._cache_enabled:
            return self.evaluate_uncached(pdn_name, point, overrides)
        key = self.cache_key(pdn_name, point, overrides)
        cached = self.cache_lookup(key)
        if cached is not None:
            return cached
        result = self.evaluate_uncached(pdn_name, point, overrides)
        return self.cache_install(key, result)

    # ------------------------------------------------------------------ #
    # Lazily built, override-keyed shared state
    # ------------------------------------------------------------------ #
    def _parameters_for(self, overrides: OverrideKey) -> PdnTechnologyParameters:
        if not overrides:
            return self.parameters
        return self.parameters.with_overrides(**dict(overrides))

    def _predictor_for(self, overrides: OverrideKey):
        with self._cache_lock:
            predictor = self._predictors.get(overrides)
        if predictor is not None:
            return predictor
        # The calibration is deterministic, so two racing builders produce
        # equivalent predictors; first one wins.  Without overrides the
        # analytic engine's own FlexWatts instance shares its calibration.
        if not overrides and FlexWattsPdn.name in self._spot.pdns:
            predictor = self._spot.pdn(FlexWattsPdn.name).predictor
        else:
            predictor = FlexWattsPdn(
                parameters=self._parameters_for(overrides)
            ).predictor
        with self._cache_lock:
            return self._predictors.setdefault(overrides, predictor)

    def _make_mode_evaluator(self, overrides: OverrideKey):
        """Mode-forced evaluation hook backed by the cross-run memo.

        With the engine cache disabled the hook computes directly (the
        seed-equivalent cost model the cold benchmarks rely on); the
        simulator's per-run memo still deduplicates repeats within a trace
        either way.
        """
        if not self._cache_enabled:
            return None  # IntervalSimulator falls back to direct evaluation

        def evaluate_in_mode(
            pdn: FlexWattsPdn, conditions: OperatingConditions, mode: PdnMode
        ) -> PdnEvaluation:
            """Serve one (point, mode) evaluation through the shared memo."""
            key = (overrides, mode, conditions_key(conditions))
            cached = self._mode_evaluations.get(key)
            if cached is None:
                cached = self._mode_evaluations.setdefault(
                    key, pdn.evaluate_in_mode(conditions, mode)
                )
            return cached

        return evaluate_in_mode

    # ------------------------------------------------------------------ #
    # Study execution
    # ------------------------------------------------------------------ #
    def evaluate_units(
        self,
        units: Iterable[Tuple[str, SimPoint, OverrideKey]],
        executor: ExecutorLike = None,
        jobs: Optional[int] = None,
    ) -> List[SimulationResult]:
        """Simulate ``(pdn_name, point, overrides)`` units, in order.

        Exactly the contract of :meth:`PdnSpot.evaluate_units` (the single
        public batch entry point of every engine): every backend --
        the default serial one included -- deduplicates, serves cached units,
        hands the misses to :meth:`evaluate_columns` chunk by chunk, merges
        the results back into this engine's memo cache and returns them in
        canonical unit order.
        """
        backend = make_executor(executor, jobs=jobs)
        if backend is None:
            backend = SerialExecutor(jobs=1)
        return backend.evaluate_units(self, units)

    def run(
        self,
        study: SimStudy,
        executor: ExecutorLike = None,
        jobs: Optional[int] = None,
    ) -> ResultSet:
        """Execute a :class:`SimStudy` and return its summary results.

        Points are simulated in grid order against every instantiated PDN
        (or the study's ``pdn_names`` restriction); the returned
        :class:`ResultSet` holds one summary row per ``(point, pdn)``
        simulation, in canonical grid order regardless of the backend --
        a parallel run is bit-identical to the serial one.
        """
        started = time.perf_counter()
        before = self.cache_info()
        names = (
            study.pdn_names if study.pdn_names is not None else tuple(self._spot.pdns)
        )
        for name in names:
            self._spot.pdn(name)  # fail fast on unknown PDNs
        units = [
            (name, point, point.overrides)
            for point in study.points
            for name in names
        ]
        with obs_trace.span("engine.run", category="engine",
                            study=study.name, units=len(units)):
            results = self.evaluate_units(units, executor=executor, jobs=jobs)
        records: List[Record] = []
        cursor = 0
        for point in study.points:
            identity = point.record_fields()
            for _ in names:
                records.append(simulation_record(results[cursor], identity))
                cursor += 1
        resultset = ResultSet.from_records(records, name=study.name)
        after = self.cache_info()
        resultset.run_stats = RunStats(
            units=len(units),
            duration_s=time.perf_counter() - started,
            cache_hits=after.hits - before.hits,
            cache_misses=after.misses - before.misses,
            executor=executor_label(make_executor(executor, jobs=jobs)),
        )
        return resultset


def run_sim(
    study: SimStudy,
    engine: Optional[SimEngine] = None,
    parameters: Optional[PdnTechnologyParameters] = None,
    executor: ExecutorLike = None,
    jobs: Optional[int] = None,
    cache_dir: DiskCacheLike = None,
) -> ResultSet:
    """Execute ``study`` and return its summary :class:`ResultSet`.

    The convenience entry point behind the CLI ``simulate`` sub-command:
    builds a default :class:`SimEngine` (or uses the supplied one) and
    forwards ``executor``/``jobs`` to the execution backend.  ``cache_dir``
    attaches the persistent on-disk tier (see :mod:`repro.cache`): a warm
    directory serves every repeated simulation from disk.
    """
    if engine is not None and parameters is not None:
        raise ConfigurationError(
            "pass either a prebuilt engine or parameters, not both"
        )
    if engine is not None and cache_dir is not None:
        raise ConfigurationError(
            "pass either a prebuilt engine or cache_dir; attach the disk "
            "cache when building the engine instead"
        )
    if engine is None:
        engine = SimEngine(parameters=parameters, disk_cache=cache_dir)
    return engine.run(study, executor=executor, jobs=jobs)
