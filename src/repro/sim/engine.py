"""The interval simulator.

The simulator models time explicitly but keeps the electrical models analytic:
each workload phase is one (or several) evaluation intervals during which the
operating point is constant, so the phase's energy is simply power x time.
What the simulator adds over the analytic sweeps is the *dynamic* behaviour of
FlexWatts: mode decisions are made from PMU telemetry at each interval, mode
switches cost the 94 us flow, and a minimum-residency guard prevents
thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import attrgetter, eq, mul
from typing import (
    Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_switching import ModeSwitchController, ModeSwitchOverheads
from repro.core.runtime_estimator import RuntimeInputEstimator
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.pdn.base import LoadSets, OperatingConditions, PdnEvaluation, PowerDeliveryNetwork
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.soc.pmu import PmuTelemetry, PowerManagementUnit
from repro.util.errors import ConfigurationError
from repro.util.validation import require_positive
from repro.workloads.base import WorkloadPhase, WorkloadTrace

# Simulator instruments, bound once at import time.
_SIM_PHASES = METRICS.counter("sim.phases")
_SIM_MODE_SWITCHES = METRICS.counter("sim.mode_switches")
_SIM_RESIDENCY_GUARD_HITS = METRICS.counter("sim.residency_guard_hits")

#: ``PhaseRecord.pdn_mode`` of each hybrid-PDN mode.
_MODE_NAMES = {mode: mode.value for mode in PdnMode}

#: Evaluation hook for static PDNs: ``(pdn, conditions) -> PdnEvaluation``.
#: Lets an external memo cache (a :class:`repro.analysis.pdnspot.PdnSpot`)
#: serve operating points repeated across traces, scenarios and TDPs.
PhaseEvaluator = Callable[
    [PowerDeliveryNetwork, OperatingConditions], PdnEvaluation
]

#: Evaluation hook for the hybrid PDN's mode-forced evaluations:
#: ``(pdn, conditions, mode) -> PdnEvaluation``.
ModeEvaluator = Callable[
    [FlexWattsPdn, OperatingConditions, PdnMode], PdnEvaluation
]


def phase_conditions(
    phase: WorkloadPhase, tdp_w: float, load_sets: Optional[LoadSets] = None
) -> OperatingConditions:
    """The operating point one workload phase is evaluated at.

    Active C0 phases carry their benchmark's application ratio and workload
    type; every other phase takes both from the package power-state profile.
    This is *the* phase-to-operating-point mapping -- the simulator, the
    telemetry profile and any external tooling must agree on it.
    ``load_sets`` shares the loads with the other points of a batch.
    """
    if phase.power_state is PackageCState.C0 and phase.benchmark is not None:
        return OperatingConditions.for_active_workload(
            tdp_w=tdp_w,
            application_ratio=phase.benchmark.application_ratio,
            workload_type=phase.benchmark.workload_type,
            load_sets=load_sets,
        )
    if phase.power_state is PackageCState.C0:
        raise ConfigurationError("a C0 phase needs a benchmark")
    return OperatingConditions.for_power_state(
        tdp_w, phase.power_state, load_sets=load_sets
    )


def phase_duration(phase: WorkloadPhase, trace_period_s: float) -> float:
    """One phase's wall-clock duration (residency fallback included)."""
    if phase.duration_s is not None:
        return phase.duration_s
    return phase.residency * trace_period_s


#: Memo key of one phase's operating point: ``(tdp, power state, application
#: ratio, workload type)``; the last two are ``None`` outside active C0.
PointKey = Tuple[float, PackageCState, Optional[float], Optional[WorkloadType]]


def phase_point_key(phase: WorkloadPhase, tdp_w: float) -> PointKey:
    """The inputs :func:`phase_conditions` reads, as a hashable key.

    Two phases with equal keys map to equal operating points, so a memo over
    this key builds each point once; it is far cheaper than building the
    conditions and hashing their loads.
    """
    benchmark = phase.benchmark
    if phase.power_state is PackageCState.C0 and benchmark is not None:
        return (
            tdp_w, phase.power_state,
            benchmark.application_ratio, benchmark.workload_type,
        )
    return (tdp_w, phase.power_state, None, None)


def telemetry_profile(
    trace: WorkloadTrace, tdp_w: float, trace_period_s: float = 1.0
) -> List[PmuTelemetry]:
    """Per-phase PMU telemetry snapshots a trace produces at ``tdp_w``.

    Exactly the snapshots the interval simulator emits through
    :meth:`~repro.soc.pmu.PowerManagementUnit.emit_telemetry` -- same
    phase-to-operating-point mapping (:func:`phase_conditions`), same
    zero-duration skipping, same oracle estimator -- without running a
    simulation (no PDN needed).
    """
    return [
        RuntimeInputEstimator.estimate_from_conditions(
            phase_conditions(phase, tdp_w)
        )
        for phase in trace.phases
        if phase_duration(phase, trace_period_s) > 0.0
    ]


@dataclass(frozen=True)
class PhaseRecord:
    """Simulation outcome of one workload phase."""

    phase_index: int
    power_state: str
    workload_type: str
    duration_s: float
    supply_power_w: float
    energy_j: float
    pdn_mode: Optional[str] = None
    mode_switched: bool = False


class _PhaseColumns(NamedTuple):
    """A result's phase records as parallel columns, one per record field.

    The mode columns are ``None`` for a static PDN: no record carries a mode.
    """

    phase_index: Sequence[int]
    power_state: Sequence[str]
    workload_type: Sequence[str]
    duration_s: Sequence[float]
    supply_power_w: Sequence[float]
    energy_j: Sequence[float]
    pdn_mode: Optional[Sequence[str]] = None
    mode_switched: Optional[Sequence[bool]] = None

    def records(self) -> Tuple[PhaseRecord, ...]:
        """The :class:`PhaseRecord` of each phase, in order."""
        columns = self if self.pdn_mode is not None else self[:6]
        return tuple(map(PhaseRecord, *columns))

    @classmethod
    def from_records(cls, records: Sequence[PhaseRecord]) -> "_PhaseColumns":
        """The columns of eagerly built ``records``."""
        if not records:
            return cls((), (), (), (), (), ())
        columns = cls(*zip(*map(attrgetter(*cls._fields), records)))
        if all(mode is None for mode in columns.pdn_mode):
            return columns._replace(pdn_mode=None, mode_switched=None)
        return columns


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of simulating one trace on one PDN (read-only).

    Results are frozen and hold their phase records in a tuple, so a cached
    result can be handed to every caller without a copy.

    A result from :meth:`IntervalSimulator.replay` holds its phases as
    columns: the summaries sum them, and ``phase_records`` is built from
    them on first read and kept (a pickle builds them without keeping
    them).  Equality, hash, ``repr`` and the pickled state are those of an
    eagerly built result.
    """

    pdn_name: str
    trace_name: str
    tdp_w: float
    # A default factory leaves no class attribute, so ``__getattr__`` is
    # reached while a columnar result has not built its records.
    phase_records: Tuple[PhaseRecord, ...] = field(default_factory=tuple)
    mode_switch_count: int = 0
    mode_switch_time_s: float = 0.0
    mode_switch_energy_j: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_records", tuple(self.phase_records))

    @classmethod
    def _from_columns(cls, columns: _PhaseColumns, **values: object) -> "SimulationResult":
        """A columnar result: ``phase_records`` is built on first read."""
        result = object.__new__(cls)
        result.__dict__.update(values, _columns=columns)
        return result

    def __getattr__(self, name: str) -> object:
        # Reached only for attributes missing from the instance: the records
        # of a columnar result, or the columns of an eagerly built one, before
        # their first read.  setdefault keeps one copy when threads race.
        state = self.__dict__
        if name == "phase_records" and "_columns" in state:
            return state.setdefault(name, state["_columns"].records())
        if name == "_columns" and "phase_records" in state:
            return state.setdefault(
                name, _PhaseColumns.from_records(state["phase_records"])
            )
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __getstate__(self) -> Dict[str, object]:
        # The fields alone, in the order an eagerly built result pickles them.
        # Records built for the pickle are not kept: a disk write-through
        # leaves a cached columnar result as small as it was.
        state = {name: self.__dict__.get(name) for name in self.__dataclass_fields__}
        if state["phase_records"] is None:
            state["phase_records"] = self._columns.records()
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Entries pickled before results were read-only hold a list.
        self.__dict__.update(state, phase_records=tuple(state["phase_records"]))

    @property
    def adaptive(self) -> bool:
        """Whether the phases carry a PDN mode (a hybrid-PDN run)."""
        return self._columns.pdn_mode is not None

    @property
    def total_time_s(self) -> float:
        """Total simulated time, including mode-switch flows."""
        return sum(self._columns.duration_s) + self.mode_switch_time_s

    @property
    def total_energy_j(self) -> float:
        """Total energy drawn from the platform supply."""
        return sum(self._columns.energy_j) + self.mode_switch_energy_j

    @property
    def average_power_w(self) -> float:
        """Average supply power over the simulated trace."""
        total_time = self.total_time_s
        if total_time == 0.0:
            return 0.0
        return self.total_energy_j / total_time

    def time_in_mode_s(self, mode: PdnMode) -> float:
        """Time spent with the hybrid PDN in ``mode`` (FlexWatts runs only)."""
        columns = self._columns
        if columns.pdn_mode is None:
            return 0.0
        in_mode = map(eq, columns.pdn_mode, repeat(mode.value))
        return sum(compress(columns.duration_s, in_mode), 0.0)


@dataclass(frozen=True, eq=False)
class PhasePlan:
    """One trace's simulated phases at one TDP, as parallel columns.

    Built once per ``(trace, TDP, trace period)`` by
    :meth:`IntervalSimulator.plan` and shared by every PDN replayed over it.
    Zero-duration phases are dropped; ``points`` index ``conditions``, a
    list several plans may share so each distinct operating point is built
    once per batch.
    """

    trace_name: str
    conditions: Sequence[OperatingConditions]
    #: Trace index of each simulated phase.
    indices: Tuple[int, ...]
    durations_s: Tuple[float, ...]
    #: Operating-point index (into ``conditions``) of each simulated phase.
    points: Tuple[int, ...]
    power_states: Tuple[PackageCState, ...]
    #: ``PhaseRecord.power_state`` / ``workload_type`` of each phase.
    state_names: Tuple[str, ...]
    workload_names: Tuple[str, ...]


@dataclass(frozen=True)
class ModeScan:
    """The hybrid PDN's modes over one plan, from the residency-guarded scan.

    The mode sequence depends only on the Algorithm-1 predictions, the phase
    durations and the minimum-residency guard -- never on powers -- so it is
    scanned before any forced-mode evaluation, and :meth:`reads` names
    exactly the ``(mode, point)`` pairs the replay will look up.
    """

    #: Mode each simulated phase runs in.
    modes: Tuple[PdnMode, ...]
    #: ``(position, mode left, latency)`` of each switch, in phase order.
    switches: Tuple[Tuple[int, PdnMode, float], ...]
    #: ``(position, desired mode)`` of each residency-guard veto.
    vetoes: Tuple[Tuple[int, PdnMode], ...]
    #: The switch flow's overheads (drives an observed PMU through C6).
    overheads: ModeSwitchOverheads

    def reads(self, plan: PhasePlan) -> Iterator[Tuple[PdnMode, int]]:
        """Every ``(mode, point)`` lookup of the replay (with repeats).

        Each phase reads its point in the mode it runs in; a switch also
        reads the pre-switch mode's power, which the flow is paid at.
        """
        points = plan.points
        return chain(
            zip(self.modes, points),
            ((left, points[position]) for position, left, _ in self.switches),
        )


class IntervalSimulator:
    """Replays workload traces against a processor + PDN combination.

    Parameters
    ----------
    tdp_w:
        The processor's configured TDP.
    trace_period_s:
        The period over which residencies are defined (e.g. the length of one
        video frame times the number of frames simulated); phases that carry
        only a residency last ``residency * trace_period_s``.
    evaluation_interval_s:
        How often the PMU re-evaluates its algorithms (FlexWatts uses 10 ms).
    """

    def __init__(
        self,
        tdp_w: float,
        trace_period_s: float = 1.0,
        evaluation_interval_s: float = 10e-3,
    ):
        require_positive(tdp_w, "tdp_w")
        require_positive(trace_period_s, "trace_period_s")
        require_positive(evaluation_interval_s, "evaluation_interval_s")
        self._tdp_w = tdp_w
        self._trace_period_s = trace_period_s
        self._evaluation_interval_s = evaluation_interval_s

    # ------------------------------------------------------------------ #
    # Operating-point resolution
    # ------------------------------------------------------------------ #
    def plan(
        self,
        trace: WorkloadTrace,
        memo: Dict[PointKey, int],
        conditions: List[OperatingConditions],
        load_sets: Optional[LoadSets] = None,
    ) -> PhasePlan:
        """Resolve ``trace`` at this TDP into a :class:`PhasePlan`.

        New operating points are appended to ``conditions`` and interned in
        ``memo`` (keyed by :func:`phase_point_key`), so every distinct point
        is built once however many phases -- or, with a shared memo, however
        many traces -- reach it.  Points share their loads through
        ``load_sets`` (a fresh memo when not given), which a batch shares
        across its plans like ``memo``.

        A trace whose phases all resolve to zero duration is rejected: it has
        no simulable time, so every aggregate would silently be zero.
        """
        durations_s = [
            phase_duration(phase, self._trace_period_s) for phase in trace.phases
        ]
        if not any(duration > 0.0 for duration in durations_s):
            raise ConfigurationError(
                f"trace {trace.name!r} has no phase with a non-zero duration; "
                "nothing to simulate"
            )
        if load_sets is None:
            load_sets = LoadSets()
        indices: List[int] = []
        kept_s: List[float] = []
        points: List[int] = []
        phases: List[WorkloadPhase] = []
        for index, (phase, duration_s) in enumerate(zip(trace.phases, durations_s)):
            if duration_s == 0.0:
                continue
            key = phase_point_key(phase, self._tdp_w)
            point = memo.get(key)
            if point is None:
                conditions.append(phase_conditions(phase, self._tdp_w, load_sets))
                point = memo[key] = len(conditions) - 1
            indices.append(index)
            kept_s.append(duration_s)
            points.append(point)
            phases.append(phase)
        states = tuple(phase.power_state for phase in phases)
        return PhasePlan(
            trace_name=trace.name,
            conditions=conditions,
            indices=tuple(indices),
            durations_s=tuple(kept_s),
            points=tuple(points),
            power_states=states,
            state_names=tuple(state.value for state in states),
            workload_names=tuple(
                phase.benchmark.workload_type.value
                if phase.benchmark is not None
                else WorkloadType.IDLE.value
                for phase in phases
            ),
        )

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run(
        self,
        trace: WorkloadTrace,
        pdn: PowerDeliveryNetwork,
        pmu: Optional[PowerManagementUnit] = None,
        evaluate: Optional[PhaseEvaluator] = None,
        evaluate_in_mode: Optional[ModeEvaluator] = None,
    ) -> SimulationResult:
        """Simulate ``trace`` on ``pdn``.

        For a :class:`FlexWattsPdn` the Algorithm-1 predictor is consulted for
        every phase, the mode-switch controller enforces the minimum mode
        residency, and every switch adds the flow's latency and energy.  Other
        PDNs are static, so their phases are evaluated directly.

        Phases are *batched by operating point*: because the electrical models
        are pure, every distinct ``(operating point, mode)`` pair the replay
        reads is evaluated exactly once per run.  The optional ``evaluate`` /
        ``evaluate_in_mode`` hooks route those one-per-point evaluations
        through an external cache (:class:`repro.sim.study.SimEngine` wires
        them to a shared :class:`~repro.analysis.pdnspot.PdnSpot`), so
        operating points repeated *across* traces are also computed once.
        This per-point path is the reference the engine's batch pass
        (:meth:`repro.sim.study.SimEngine.evaluate_columns`) is gated against.
        A supplied ``pmu`` is driven through every phase and switch flow.
        """
        conditions: List[OperatingConditions] = []
        plan = self.plan(trace, {}, conditions)
        distinct = dict.fromkeys(plan.points)
        if not isinstance(pdn, FlexWattsPdn):
            evaluate_point = evaluate or (lambda model, at: model.evaluate(at))
            power = {
                point: evaluate_point(pdn, conditions[point]).supply_power_w
                for point in distinct
            }
            return self.replay(plan, pdn.name, power, pmu=pmu)
        predicted = {point: pdn.predict_mode(conditions[point]) for point in distinct}
        scan = self.scan_modes(plan, pdn.switch_controller, predicted)
        evaluate_mode = evaluate_in_mode or (
            lambda model, at, mode: model.evaluate_in_mode(at, mode)
        )
        mode_power = {
            (mode, point): evaluate_mode(pdn, conditions[point], mode).supply_power_w
            for mode, point in dict.fromkeys(scan.reads(plan))
        }
        return self.replay(plan, pdn.name, mode_power, scan, pmu=pmu)

    def scan_modes(
        self,
        plan: PhasePlan,
        controller: ModeSwitchController,
        predicted: Mapping[int, PdnMode],
    ) -> ModeScan:
        """Run the residency-guarded mode-switch scan over ``plan``.

        ``predicted`` maps each point to its Algorithm-1 mode.  Each phase
        advances the controller's residency clock; a wanted switch the guard
        allows is performed at the phase boundary, and a vetoed one keeps the
        current mode.  Besides resolving the plan, this scan is the only
        per-phase Python loop of an unobserved simulation: the replay builds
        columns, and records are built only when someone reads them.
        """
        modes: List[PdnMode] = []
        switches: List[Tuple[int, PdnMode, float]] = []
        vetoes: List[Tuple[int, PdnMode]] = []
        for position, (duration_s, point) in enumerate(
            zip(plan.durations_s, plan.points)
        ):
            controller.advance_time(duration_s)
            desired = predicted[point]
            current = controller.mode
            if desired is not current:
                if controller.can_switch():
                    switches.append((position, current, controller.switch_to(desired)))
                    current = desired
                else:
                    vetoes.append((position, desired))
            modes.append(current)
        return ModeScan(tuple(modes), tuple(switches), tuple(vetoes), controller.overheads)

    def replay(
        self,
        plan: PhasePlan,
        pdn_name: str,
        power: Mapping,
        scan: Optional[ModeScan] = None,
        pmu: Optional[PowerManagementUnit] = None,
    ) -> SimulationResult:
        """Build one PDN's result over a resolved plan.

        Without a ``scan`` the PDN is static: ``power`` maps each point to
        its supply power.  With the :class:`ModeScan` of a hybrid PDN,
        ``power`` maps every pair of :meth:`ModeScan.reads` to its supply
        power, and each switch pays the flow's latency at the pre-switch
        mode's power.  The result holds the phases as columns -- the plan's
        own, plus each phase's power and energy and, for a hybrid PDN, its
        mode name and switch flag -- and builds no record.

        A PMU is driven only when someone observes it: the caller passes one,
        or tracing is on (its telemetry then becomes ``pmu.telemetry``
        instants).  Otherwise none is built.
        """
        traced = obs_trace.tracing_enabled()
        if pmu is None and traced:
            pmu = PowerManagementUnit(tdp_w=self._tdp_w)
        if pmu is not None and traced:
            obs_trace.attach_pmu_tracing(pmu)
        durations_s = plan.durations_s
        with obs_trace.span("sim.run", category="sim", trace=plan.trace_name,
                            pdn=pdn_name, tdp_w=self._tdp_w) as run_span:
            if scan is None:
                powers = list(map(power.__getitem__, plan.points))
                mode_columns = ()
                switch_count, switch_time_s, switch_energy_j = 0, 0.0, 0.0
            else:
                powers = list(map(power.__getitem__, zip(scan.modes, plan.points)))
                switched, switch_time_s, switch_energy_j = self._account_switches(
                    plan, power, scan
                )
                mode_columns = (list(map(_MODE_NAMES.__getitem__, scan.modes)), switched)
                switch_count = len(scan.switches)
            columns = _PhaseColumns(
                plan.indices, plan.state_names, plan.workload_names, durations_s,
                powers, list(map(mul, powers, durations_s)), *mode_columns,
            )
            if pmu is not None:
                self._drive_pmu(plan, pmu, scan)
            _SIM_PHASES.inc(len(durations_s))
            run_span.set("phases", len(durations_s))
            run_span.set("mode_switches", switch_count)
        return SimulationResult._from_columns(
            columns,
            pdn_name=pdn_name,
            trace_name=plan.trace_name,
            tdp_w=self._tdp_w,
            mode_switch_count=switch_count,
            mode_switch_time_s=switch_time_s,
            mode_switch_energy_j=switch_energy_j,
        )

    @staticmethod
    def _account_switches(
        plan: PhasePlan, power: Mapping, scan: ModeScan
    ) -> Tuple[List[bool], float, float]:
        """Per-phase switch flags, and the switch time and energy, in order."""
        switched = [False] * len(plan.points)
        switch_time_s = 0.0
        switch_energy_j = 0.0
        for position, left, latency_s in scan.switches:
            switched[position] = True
            switch_time_s += latency_s
            switch_energy_j += power[left, plan.points[position]] * latency_s
            obs_trace.instant(
                "sim.mode_switch", category="sim", phase=plan.indices[position],
                mode=scan.modes[position].value, latency_s=latency_s,
            )
        _SIM_MODE_SWITCHES.inc(len(scan.switches))
        for position, desired in scan.vetoes:
            # The minimum-residency guard vetoed a wanted switch: the
            # thrashing case the paper's flow is designed to suppress.
            obs_trace.instant(
                "sim.residency_guard_hit", category="sim",
                phase=plan.indices[position], desired=desired.value,
            )
        _SIM_RESIDENCY_GUARD_HITS.inc(len(scan.vetoes))
        return switched, switch_time_s, switch_energy_j

    @staticmethod
    def _drive_pmu(
        plan: PhasePlan, pmu: PowerManagementUnit, scan: Optional[ModeScan]
    ) -> None:
        """Walk ``pmu`` through the plan: switch flows, clock, C-states.

        Each switch's C6 flow runs at its phase boundary, before the phase
        advances the clock and sets the package state; with listeners, each
        phase emits the oracle telemetry snapshot of its operating point.
        """
        switch_at = {position for position, _, _ in scan.switches} if scan else set()
        emit_telemetry = pmu.has_telemetry_listeners
        conditions = plan.conditions
        for position, (duration_s, point, state) in enumerate(
            zip(plan.durations_s, plan.points, plan.power_states)
        ):
            if position in switch_at:
                scan.overheads.drive_flow(pmu)
            pmu.advance_time(duration_s)
            pmu.enter_power_state(state)
            if emit_telemetry:
                pmu.emit_telemetry(
                    RuntimeInputEstimator.estimate_from_conditions(conditions[point])
                )

    def compare(
        self,
        trace: WorkloadTrace,
        pdns: Sequence[PowerDeliveryNetwork],
    ) -> Dict[str, SimulationResult]:
        """Simulate ``trace`` on several PDNs and return the results by name."""
        return {pdn.name: self.run(trace, pdn) for pdn in pdns}
