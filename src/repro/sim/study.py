"""Declarative trace-driven simulation studies on the shared dispatch path.

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
same :func:`~repro.analysis.executor.evaluate_units` path: work units are
hashable ``(pdn name, SimPoint, overrides)`` references (traces are rebuilt
from the scenario registry), results are memo-cached and merged back, and
the :class:`ResultSet` is reassembled in canonical grid order.

Example
-------
>>> from repro.sim.study import SimStudy, run_sim
>>> study = SimStudy.over_scenarios(["duty-cycled-background"], tdps_w=[18.0])
>>> resultset = run_sim(study)
>>> len(resultset) == 5  # one row per PDN
True
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.analysis.executor import EvalResult, MemoCacheMixin, evaluate_units
from repro.analysis.pdnspot import CacheInfo, PdnSpot
from repro.analysis.resultset import Record, ResultSet
from repro.analysis.study import OverrideKey, _flatten, _freeze_overrides
from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_switching import ModeSwitchController
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.obs.runstats import RunStats
from repro.pdn import columnar as columnar_core
from repro.pdn.base import LoadSets, OperatingConditions, PdnEvaluation, conditions_key
from repro.power.parameters import PdnTechnologyParameters
from repro.sim.adapters import simulation_record
from repro.sim.engine import (
    IntervalSimulator,
    ModeScan,
    PhasePlan,
    PointKey,
    SimulationResult,
)
from repro.util.errors import ConfigurationError
from repro.workloads.base import WorkloadTrace
from repro.workloads.scenarios import DEFAULT_SEED, build_scenario_trace, get_scenario

if TYPE_CHECKING:  # imported on first use: only an engine with a disk tier needs it
    from repro.cache.store import DiskCache

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


class SimEngine(MemoCacheMixin):
    """Memo-cached trace-simulation engine on the shared dispatch path.

    The engine owns a :class:`~repro.analysis.pdnspot.PdnSpot` (PDN models,
    technology parameters, and the *phase-level* evaluation cache that serves
    operating points repeated across traces and scenarios) plus a
    *simulation-level* memo cache keyed by
    ``(overrides, pdn name, SimPoint)``.  It implements the execution-engine
    protocol of :mod:`repro.analysis.executor`, so :meth:`evaluate_units`
    dedupes, caches and reassembles exactly as :meth:`PdnSpot.evaluate_units`
    does.

    Parameters
    ----------
    parameters:
        Technology parameters shared by every PDN model (Table 2 defaults).
    pdn_names:
        Which PDN architectures to simulate; defaults to all five.
    baseline_name:
        The PDN used for normalisation (IVR, the state of the art).
    enable_cache:
        Whether simulations (and phase evaluations) are memoised.
        Disabling reproduces the uncached cost the cold benchmarks measure.
    disk_cache:
        Optional cache-directory path: the second cache tier (see
        :mod:`repro.cache`).  Memory misses of a batch are looked up on
        disk in one query, computed simulations are written through in one
        transaction, so a directory warmed by one process serves identical
        runs in any later process.  Rows are keyed by this engine's
        parameters fingerprint and additionally digest the trace *content*
        rebuilt from the scenario registry, so a re-registered generator
        (same name, different trace) invalidates its rows rather than
        replaying stale results.  Requires ``enable_cache=True``.
    """

    #: Tags this engine's executor spans; also the namespace of its disk rows.
    engine_tag = "sim"

    def __init__(
        self,
        parameters: Optional[PdnTechnologyParameters] = None,
        pdn_names: Optional[Sequence[str]] = None,
        baseline_name: str = "IVR",
        enable_cache: bool = True,
        disk_cache: Optional[Union[str, Path]] = None,
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
        )
        self._disk_cache: Optional[DiskCache] = None
        if disk_cache is not None:
            from repro.cache.store import DiskCache, parameters_fingerprint

            self._disk_cache = DiskCache(
                disk_cache, self.engine_tag, parameters_fingerprint(self._spot.parameters)
            )
        #: Trace-content digests keyed by (scenario, seed): part of the
        #: *disk* address of every simulation, so a re-registered scenario
        #: generator (same name, different trace) can never replay another
        #: generator's persisted results.  In-memory keys stay name-based --
        #: the registry is fixed within a process.
        self._trace_digests: Dict[Tuple[str, int], str] = {}
        self._cache_enabled = enable_cache
        self._cache: Dict[Tuple[object, ...], SimulationResult] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_lock = threading.Lock()
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
        calibrated predictors are process-wide model state
        (:mod:`repro.core.calibration`) and survive, and so does the disk
        tier (``repro cache prune`` reclaims it).
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
            from repro.cache.store import canonical_key

            trace = build_scenario_trace(point.scenario, seed=point.seed)
            digest = hashlib.sha256(
                canonical_key(trace).encode("utf-8")
            ).hexdigest()[:16]
            with self._cache_lock:
                digest = self._trace_digests.setdefault(ident, digest)
        return (*key, ("trace", digest))

    # cache_lookup_many / cache_install_many come from MemoCacheMixin; the
    # two hooks below put the disk tier behind its memory tier.
    def _lookup_below(
        self,
        keys: Sequence[Tuple[object, ...]],
        found: List[Optional[EvalResult]],
        missing: List[int],
    ) -> int:
        """Serve memory misses from disk in one query, promoting the hits."""
        if self._disk_cache is None:
            return 0
        disk_keys = [self._disk_key(keys[index]) for index in missing]
        served = 0
        for index, disk_key, payload in zip(
            missing, disk_keys, self._disk_cache.get_many(disk_keys)
        ):
            if isinstance(payload, SimulationResult):
                with self._cache_lock:
                    found[index] = self._cache.setdefault(keys[index], payload)
                    self._cache_hits += 1
                served += 1
            elif payload is not None:
                # A valid row of the wrong payload class (e.g. written by a
                # version that changed the payload type without bumping the
                # format version): heal it like corruption, loudly.
                self._disk_cache.discard(
                    disk_key,
                    f"payload is {type(payload).__name__}, expected SimulationResult",
                )
        return served

    def _install_below(
        self, keys: Sequence[Tuple[object, ...]], results: Sequence[EvalResult]
    ) -> None:
        """Write a computed batch through to disk in one transaction."""
        if self._disk_cache is not None:
            self._disk_cache.put_many(list(map(self._disk_key, keys)), results)

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

    def evaluate_columns(
        self, units: Sequence[Tuple[str, SimPoint, OverrideKey]]
    ) -> Optional[List[SimulationResult]]:
        """Simulate a batch of units in one pass over their distinct phase points.

        1. Each ``(scenario, seed)`` trace is built once, and each
           ``(trace, TDP, trace period)`` is resolved once into a
           :class:`~repro.sim.engine.PhasePlan` that every PDN unit on it
           shares; phases map to operating points, and points to shared
           load sets, through memos that live only for this batch.
        2. Every static-PDN point goes through one
           :meth:`PdnSpot.evaluate_units` call: columnar, counted by the
           phase-level cache and written through to its disk tier.
        3. Per FlexWatts variant, each point's Algorithm-1 mode is predicted,
           every unit's mode-switch scan runs, and exactly the
           ``(point, mode)`` pairs the scans read are evaluated in columns,
           one call per mode (:meth:`_mode_tables`).
        4. Every unit is replayed against these tables
           (:meth:`IntervalSimulator.replay`); no evaluation happens there.

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
            load_sets = LoadSets()
            plans: Dict[Tuple[object, ...], Tuple[IntervalSimulator, PhasePlan]] = {}
            unit_plans: List[Tuple[IntervalSimulator, PhasePlan]] = []
            for _, point, _ in unit_list:
                key = (point.scenario, point.seed, point.tdp_w, point.trace_period_s)
                entry = plans.get(key)
                if entry is None:
                    ident = (point.scenario, point.seed)
                    trace = traces.get(ident)
                    if trace is None:
                        trace = traces[ident] = build_scenario_trace(
                            point.scenario, seed=point.seed
                        )
                    simulator = IntervalSimulator(
                        tdp_w=point.tdp_w, trace_period_s=point.trace_period_s
                    )
                    entry = plans[key] = (
                        simulator, simulator.plan(trace, memo, conditions, load_sets)
                    )
                unit_plans.append(entry)
            tables = self._phase_tables(unit_list, unit_plans, conditions)
            batch_span.set("points", len(conditions))
        _SIM_PREFILL_BATCHES.inc()
        return [
            simulator.replay(plan, name, power, scan)
            for (name, _, _), (simulator, plan), (power, scan)
            in zip(unit_list, unit_plans, tables)
        ]

    def _phase_tables(
        self,
        unit_list: Sequence[Tuple[str, SimPoint, OverrideKey]],
        unit_plans: Sequence[Tuple[IntervalSimulator, PhasePlan]],
        conditions: Sequence[OperatingConditions],
    ) -> List[Tuple[Dict[object, float], Optional[ModeScan]]]:
        """Per unit: its PDN's supply-power table and, for FlexWatts, its scan.

        Static PDNs get a ``{point: supply power}`` dict per
        ``(pdn, overrides)``, all filled by one analytic-engine call;
        FlexWatts variants get :meth:`_mode_tables`.
        """
        members: Dict[Tuple[str, OverrideKey], List[int]] = {}
        for position, (name, _, overrides) in enumerate(unit_list):
            members.setdefault((name, overrides), []).append(position)
        wanted = {
            key: dict.fromkeys(
                point for position in positions
                for point in unit_plans[position][1].points
            )
            for key, positions in members.items()
        }
        static = [key for key in members if key[0] != FlexWattsPdn.name]
        evaluations = iter(self._spot.evaluate_units(
            (name, conditions[point], overrides)
            for name, overrides in static
            for point in wanted[(name, overrides)]
        ))
        tables: Dict[int, Tuple[Dict[object, float], Optional[ModeScan]]] = {}
        for key in static:
            power = {point: next(evaluations).supply_power_w for point in wanted[key]}
            tables.update(dict.fromkeys(members[key], (power, None)))
        for key, positions in members.items():
            if key[0] == FlexWattsPdn.name:
                power, scans = self._mode_tables(
                    key[1], conditions, list(wanted[key]),
                    [unit_plans[position] for position in positions],
                )
                tables.update(zip(positions, ((power, scan) for scan in scans)))
        return [tables[position] for position in range(len(unit_list))]

    def _mode_tables(
        self,
        overrides: OverrideKey,
        conditions: Sequence[OperatingConditions],
        points: Sequence[int],
        unit_plans: Sequence[Tuple[IntervalSimulator, PhasePlan]],
    ) -> Tuple[Dict[object, float], List[ModeScan]]:
        """One FlexWatts variant's ``{(mode, point): power}`` table and scans.

        Every point's mode is predicted once, each unit's scan runs on a fresh
        controller, and the ``(mode, point)`` pairs the scans read come from
        the engine's cross-run mode memo or, for the rest, from one columnar
        pass per mode.  With the
        cache on, every read pair is installed in the memo, so it ends with
        the keys the per-unit path gives it.
        """
        pdn = FlexWattsPdn(parameters=self._parameters_for(overrides))
        predicted = dict(zip(points, pdn.predict_modes([conditions[p] for p in points])))
        scans = [
            simulator.scan_modes(plan, ModeSwitchController(), predicted)
            for simulator, plan in unit_plans
        ]
        reads = dict.fromkeys(
            read for scan, (_, plan) in zip(scans, unit_plans)
            for read in scan.reads(plan)
        )
        memo = self._mode_evaluations if self._cache_enabled else None
        found: Dict[Tuple[PdnMode, int], PdnEvaluation] = {}
        pending: Dict[PdnMode, List[int]] = {}
        for mode, point in reads:
            cached = None
            if memo is not None:
                cached = memo.get((overrides, mode, conditions_key(conditions[point])))
            if cached is None:
                pending.setdefault(mode, []).append(point)
            else:
                found[mode, point] = cached
        for mode, group in pending.items():
            evaluations = columnar_core.evaluate_columns(
                pdn, [conditions[point] for point in group], mode=mode
            )
            for point, evaluation in zip(group, evaluations):
                if memo is not None:
                    evaluation = memo.setdefault(
                        (overrides, mode, conditions_key(conditions[point])), evaluation
                    )
                found[mode, point] = evaluation
        power = {read: found[read].supply_power_w for read in reads}
        return power, scans

    def evaluate(
        self, pdn_name: str, point: SimPoint, overrides: OverrideKey = ()
    ) -> SimulationResult:
        """Simulate one scenario on one PDN (cached).

        The public single-point entry, mirroring :meth:`PdnSpot.evaluate`;
        for many points use :meth:`evaluate_units`.
        """
        if not self._cache_enabled:
            return self.evaluate_uncached(pdn_name, point, overrides)
        keys = [self.cache_key(pdn_name, point, overrides)]
        cached = self.cache_lookup_many(keys)[0]
        if cached is not None:
            return cached
        result = self.evaluate_uncached(pdn_name, point, overrides)
        return self.cache_install_many(keys, [result])[0]

    # ------------------------------------------------------------------ #
    # Lazily built, override-keyed shared state
    # ------------------------------------------------------------------ #
    def _parameters_for(self, overrides: OverrideKey) -> PdnTechnologyParameters:
        if not overrides:
            return self.parameters
        return self.parameters.with_overrides(**dict(overrides))

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
        self, units: Iterable[Tuple[str, SimPoint, OverrideKey]]
    ) -> List[SimulationResult]:
        """Simulate ``(pdn_name, point, overrides)`` units, in order.

        Exactly the contract of :meth:`PdnSpot.evaluate_units` (the single
        public batch entry point of every engine): it deduplicates, serves
        cached units, hands the misses to :meth:`evaluate_columns` as one
        batch, merges the results back into this engine's memo cache and
        returns them in canonical unit order.
        """
        return evaluate_units(self, units)

    def run(self, study: SimStudy) -> ResultSet:
        """Execute a :class:`SimStudy` and return its summary results.

        Points are simulated in grid order against every instantiated PDN
        (or the study's ``pdn_names`` restriction); the returned
        :class:`ResultSet` holds one summary row per ``(point, pdn)``
        simulation, in canonical grid order.
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
            results = self.evaluate_units(units)
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
        )
        return resultset


def run_sim(
    study: SimStudy,
    engine: Optional[SimEngine] = None,
    parameters: Optional[PdnTechnologyParameters] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> ResultSet:
    """Execute ``study`` and return its summary :class:`ResultSet`.

    The convenience entry point behind the CLI ``simulate`` sub-command:
    builds a default :class:`SimEngine` (or uses the supplied one) and
    runs ``study`` on it.  ``cache_dir`` (a directory path) attaches the
    persistent on-disk tier (see :mod:`repro.cache`): a warm directory
    serves every repeated simulation from disk.
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
    return engine.run(study)
