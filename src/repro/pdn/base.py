"""Common interface and data types for PDN models.

The data flow mirrors Sec. 3.1 of the paper: a PDN model is evaluated at one
*operating point* -- a set of per-domain loads plus the workload's application
ratio and type and the package power state -- and returns the power drawn from
the platform supply together with the end-to-end power-conversion efficiency
(ETEE) and a loss breakdown.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.pdn.losses import LossBreakdown, read_only
from repro.power.domains import (
    DomainKind,
    DomainLoad,
    NominalPowerCurves,
    WorkloadType,
    validate_load_set,
)
from repro.power.parameters import PdnTechnologyParameters, default_parameters
from repro.power.power_states import PackageCState, POWER_STATE_PROFILES
from repro.power.domains import DEFAULT_DOMAINS
from repro.soc.dvfs import compute_voltage_for_tdp, gfx_voltage_for_tdp
from repro.util.errors import ConfigurationError, ModelDomainError
from repro.util.validation import require_positive
from repro.vr.switching import VRPowerState

#: The Table 2 nominal-power curves, built once: the tables are immutable,
#: and operating-point constructors run once per simulated phase point.
DEFAULT_NOMINAL_CURVES = NominalPowerCurves()


class ConditionsKey(tuple):
    """The identity tuple of one operating point, hashed once.

    It equals (and hashes like) the plain tuple it holds, and
    :func:`repro.cache.canonical_key` renders it as that tuple, so canonical
    keys do not depend on the wrapper.  The hash is computed at
    construction: dict operations on cache keys never re-hash the six
    :class:`DomainLoad` dataclasses and their enums.  Pickling rebuilds the
    key from its items, so a receiving process rehashes under its own hash
    seed.
    """

    def __new__(cls, fields: tuple) -> "ConditionsKey":
        key = super().__new__(cls, fields)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return ConditionsKey, (tuple(self),)


def conditions_key(conditions: "OperatingConditions") -> ConditionsKey:
    """A hashable identity for an operating point (loads normalised to tuple).

    Used as (part of) the memo-cache key by every engine that memoises
    evaluations over operating points: :class:`repro.analysis.pdnspot.PdnSpot`
    and the per-run phase cache of the interval simulator.  The key is built
    once per conditions object whose loads are immutable (list loads could
    change under it) and kept on the object; its cached hash never crosses a
    pickle boundary (see :class:`ConditionsKey`).  A :class:`LoadSet` goes
    into the key as itself, so hashing the key reuses the load set's cached
    hash instead of re-hashing six :class:`DomainLoad` dataclasses.
    """
    key = conditions.__dict__.get("_key")
    if key is None:
        loads = conditions.loads
        immutable = type(loads) is LoadSet or type(loads) is tuple
        key = ConditionsKey((
            conditions.tdp_w,
            conditions.application_ratio,
            conditions.workload_type,
            conditions.power_state,
            conditions.board_vr_state,
            loads if immutable else tuple(loads),
        ))
        if immutable:
            conditions.__dict__["_key"] = key
    return key


class LoadSet(tuple):
    """The six domain loads of one operating point: validated and hashed once.

    It equals (and hashes like) the plain tuple of its loads and
    :func:`repro.cache.canonical_key` renders it as that tuple, so cache
    keys and their canonical forms do not depend on the wrapper.  The set is
    checked by :func:`~repro.power.domains.validate_load_set` when it is
    created; :class:`OperatingConditions` on a load set skip the check.
    Pickling rebuilds the set from its items (validated and hashed again
    under the receiving process's hash seed), like :class:`ConditionsKey`.
    """

    def __new__(cls, loads: Iterable[DomainLoad]) -> "LoadSet":
        load_set = super().__new__(cls, validate_load_set(loads))
        load_set._hash = tuple.__hash__(load_set)
        return load_set

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return LoadSet, (tuple(self),)


def active_loads(
    tdp_w: float,
    workload_type: WorkloadType,
    curves: Optional[NominalPowerCurves] = None,
) -> LoadSet:
    """The loads of an active (C0) workload of ``workload_type`` at ``tdp_w``.

    Per-domain nominal powers come from the Table 2 nominal-power curves;
    per-domain voltages follow the DVFS operating point the TDP sustains.
    The application ratio does not enter the loads.
    """
    curves = curves if curves is not None else DEFAULT_NOMINAL_CURVES
    core_voltage = compute_voltage_for_tdp(tdp_w)
    gfx_voltage = gfx_voltage_for_tdp(tdp_w, workload_type)
    cores_power = curves.cores_power_w(tdp_w, workload_type)
    gfx_power = curves.gfx_power_w(tdp_w, workload_type)
    llc_power = curves.llc_power_w(tdp_w, workload_type)
    sa_power, io_power = curves.uncore_power_w(tdp_w)
    graphics = workload_type is WorkloadType.GRAPHICS
    # Graphics workloads run the LLC at a higher voltage than the cores
    # (Sec. 7.1); CPU workloads match the LLC voltage to the cores.
    llc_voltage = gfx_voltage if graphics else core_voltage
    return LoadSet((
        DomainLoad(DomainKind.CORE0, 0.5 * cores_power, core_voltage, 0.22),
        DomainLoad(DomainKind.CORE1, 0.5 * cores_power, core_voltage, 0.22),
        DomainLoad(DomainKind.LLC, llc_power, llc_voltage, 0.22),
        DomainLoad(
            DomainKind.GFX,
            gfx_power,
            gfx_voltage,
            0.45,
            active=graphics or gfx_power > 0.0,
        ),
        DomainLoad(DomainKind.SA, sa_power, DEFAULT_DOMAINS[DomainKind.SA].fixed_voltage_v, 0.22, power_gated_rail=False),
        DomainLoad(DomainKind.IO, io_power, DEFAULT_DOMAINS[DomainKind.IO].fixed_voltage_v, 0.22, power_gated_rail=False),
    ))


def power_state_loads(power_state: PackageCState) -> LoadSet:
    """The loads of a package power state (C0_MIN, C2, ..., C8).

    The state's profile fixes them, whatever the TDP.
    """
    if power_state not in POWER_STATE_PROFILES:
        raise ModelDomainError(
            f"no default profile for power state {power_state}; "
            "use for_active_workload for C0"
        )
    return LoadSet(POWER_STATE_PROFILES[power_state].loads())


class LoadSets:
    """The load sets of one grid build or one simulation batch, each built once.

    A grid revisits few ``(TDP, workload type)`` pairs and power states but
    many application ratios, so the operating points built through one
    memo share one :class:`LoadSet` per pair or state: the loads are built,
    validated and hashed once.  A memo lives only as long as its caller
    keeps it -- the engines make one per grid build or batch -- so nothing
    grows across runs and a cold run stays cold.
    """

    __slots__ = ("_sets",)

    def __init__(self) -> None:
        self._sets: Dict[object, LoadSet] = {}

    def active(self, tdp_w: float, workload_type: WorkloadType) -> LoadSet:
        """:func:`active_loads` of ``(tdp_w, workload_type)``, built once."""
        key = (tdp_w, workload_type)
        loads = self._sets.get(key)
        if loads is None:
            loads = self._sets[key] = active_loads(tdp_w, workload_type)
        return loads

    def power_state(self, power_state: PackageCState) -> LoadSet:
        """:func:`power_state_loads` of ``power_state``, built once."""
        loads = self._sets.get(power_state)
        if loads is None:
            loads = self._sets[power_state] = power_state_loads(power_state)
        return loads


@dataclass(frozen=True)
class OperatingConditions:
    """One operating point at which a PDN is evaluated.

    Attributes
    ----------
    tdp_w:
        The processor's thermal design power.
    application_ratio:
        The workload's application ratio (AR, Sec. 2.4); the ratio of the
        current power to the highest possible (power-virus) power.
    workload_type:
        The workload class (single-thread CPU, multi-thread CPU, graphics,
        idle), used by the loss models and by FlexWatts' mode predictor.
    power_state:
        The package power state; ``C0`` for active workloads.
    loads:
        Exactly one :class:`DomainLoad` per processor domain.
    board_vr_state:
        Power state of the off-chip regulators; defaults to PS0 when active
        and to the profile of the package C-state otherwise.
    """

    tdp_w: float
    application_ratio: float
    workload_type: WorkloadType
    power_state: PackageCState
    loads: Sequence[DomainLoad]
    board_vr_state: VRPowerState = VRPowerState.PS0

    def __post_init__(self) -> None:
        require_positive(self.tdp_w, "tdp_w")
        if not 0.0 < self.application_ratio <= 1.0:
            raise ModelDomainError(
                f"application_ratio must be in (0, 1], got {self.application_ratio!r}"
            )
        if type(self.loads) is not LoadSet:
            validate_load_set(self.loads)

    @property
    def nominal_power_w(self) -> float:
        """Total nominal power of all active domains (the PDN's output power)."""
        return sum(load.effective_power_w for load in self.loads)

    def load(self, kind: DomainKind) -> DomainLoad:
        """Return the load of domain ``kind``."""
        for candidate in self.loads:
            if candidate.kind == kind:
                return candidate
        raise ModelDomainError(f"no load for domain {kind}")

    def with_loads(self, loads: Sequence[DomainLoad]) -> "OperatingConditions":
        """Return a copy of these conditions with different loads."""
        return replace(self, loads=tuple(loads))

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def for_active_workload(
        cls,
        tdp_w: float,
        application_ratio: float,
        workload_type: WorkloadType,
        curves: Optional[NominalPowerCurves] = None,
        load_sets: Optional[LoadSets] = None,
    ) -> "OperatingConditions":
        """Build the conditions for an active (C0) workload at ``tdp_w``.

        The loads are :func:`active_loads` over ``curves``; pass
        ``load_sets`` instead to share the default curves' loads with every
        other point of a grid at the same TDP and workload type.
        """
        if load_sets is not None and curves is not None:
            raise ConfigurationError("pass curves or load_sets, not both")
        loads = (
            load_sets.active(tdp_w, workload_type)
            if load_sets is not None
            else active_loads(tdp_w, workload_type, curves)
        )
        return cls(
            tdp_w=tdp_w,
            application_ratio=application_ratio,
            workload_type=workload_type,
            power_state=PackageCState.C0,
            loads=loads,
            board_vr_state=VRPowerState.PS0,
        )

    @classmethod
    def for_power_state(
        cls,
        tdp_w: float,
        power_state: PackageCState,
        load_sets: Optional[LoadSets] = None,
    ) -> "OperatingConditions":
        """Build the conditions for a package power state (C0_MIN, C2, ..., C8).

        The loads are :func:`power_state_loads`, shared through
        ``load_sets`` when given.
        """
        loads = (
            load_sets.power_state(power_state)
            if load_sets is not None
            else power_state_loads(power_state)
        )
        profile = POWER_STATE_PROFILES[power_state]
        return cls(
            tdp_w=tdp_w,
            application_ratio=profile.application_ratio,
            workload_type=WorkloadType.IDLE,
            power_state=power_state,
            loads=loads,
            board_vr_state=profile.board_vr_state,
        )


#: The fields a columnar lane builds on first read.
_LANE_DETAIL = frozenset(("breakdown", "rail_voltages_v"))


@dataclass(frozen=True)
class PdnEvaluation:
    """Result of evaluating a PDN at one operating point.

    Attributes
    ----------
    pdn_name:
        Name of the evaluated PDN.
    nominal_power_w:
        Total nominal power of the loads (the PDN output power).
    supply_power_w:
        Power drawn from the platform supply (battery/PSU): ``P_IVR``,
        ``P_MBVR``, ``P_LDO``, ... in the paper's notation.
    breakdown:
        The loss decomposition (Fig. 5).
    chip_input_current_a:
        Total current entering the processor package from the board
        regulators (the line plot of Fig. 5).
    rail_voltages_v:
        Diagnostic map of rail name to guardbanded rail voltage (read-only).

    Evaluations are immutable through their public surface -- the breakdown
    is frozen and both maps are read-only views -- so the engines hand the
    same cached object to every caller.

    An evaluation from the columnar core carries only the four scalars; its
    ``breakdown`` and ``rail_voltages_v`` are built from the block's shared
    columns on first read (under the block's lock) and kept.  Equality,
    ``repr`` and the pickled state are those of an eagerly built evaluation.
    """

    pdn_name: str
    nominal_power_w: float
    supply_power_w: float
    breakdown: LossBreakdown
    chip_input_current_a: float
    rail_voltages_v: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rail_voltages_v", read_only(self.rail_voltages_v))

    def __getattr__(self, name: str) -> object:
        # Reached only for attributes missing from the instance: the detail
        # of a columnar lane before its first read.
        if name in _LANE_DETAIL:
            state = self.__dict__
            block = state.get("_block")
            if block is not None:
                return block.detail(self, name)
            if name in state:  # built by another thread since the lookup
                return state[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __getstate__(self) -> Dict[str, object]:
        # A mappingproxy cannot be pickled: ship the plain dict, in the field
        # order earlier versions pickled, and re-wrap it on load.
        return {
            "pdn_name": self.pdn_name,
            "nominal_power_w": self.nominal_power_w,
            "supply_power_w": self.supply_power_w,
            "breakdown": self.breakdown,
            "chip_input_current_a": self.chip_input_current_a,
            "rail_voltages_v": dict(self.rail_voltages_v),
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state, rail_voltages_v=read_only(state["rail_voltages_v"]))

    @property
    def etee(self) -> float:
        """End-to-end power-conversion efficiency (Sec. 2.4)."""
        if self.supply_power_w == 0.0:
            return 0.0
        return self.nominal_power_w / self.supply_power_w

    @property
    def loss_w(self) -> float:
        """Total power lost inside the PDN."""
        return self.supply_power_w - self.nominal_power_w

    @property
    def loss_fraction(self) -> float:
        """PDN loss as a fraction of the supply power (the Fig. 2b/Fig. 5 metric)."""
        if self.supply_power_w == 0.0:
            return 0.0
        return self.loss_w / self.supply_power_w


def evaluate_pdn(
    pdn: "PowerDeliveryNetwork", conditions: OperatingConditions
) -> PdnEvaluation:
    """The default (uncached) evaluation hook: call the model directly.

    Collaborators that accept an injectable evaluator -- the Study engine,
    the performance model, the battery-life workloads -- fall back to this
    when no cached evaluator (e.g. :meth:`PdnSpot.evaluate`) is wired
    in.
    """
    return pdn.evaluate(conditions)


class PowerDeliveryNetwork(abc.ABC):
    """Abstract base class of all PDN models."""

    #: Short identifier used by the registry, reports and plots.
    name: str = "pdn"

    def __init__(self, parameters: Optional[PdnTechnologyParameters] = None):
        self.parameters = parameters if parameters is not None else default_parameters()

    @abc.abstractmethod
    def evaluate(self, conditions: OperatingConditions) -> PdnEvaluation:
        """Evaluate the PDN at ``conditions`` and return the ETEE result."""

    @abc.abstractmethod
    def iccmax_requirements_a(self, tdp_w: float) -> Dict[str, float]:
        """Maximum current each *off-chip* regulator must support at ``tdp_w``.

        These drive the board-area and BOM models (Sec. 3.2): a higher Iccmax
        means a physically larger and more expensive regulator, and sharing a
        regulator across domains reduces the total requirement.
        """

    def etee(self, conditions: OperatingConditions) -> float:
        """Convenience wrapper returning only the ETEE at ``conditions``."""
        return self.evaluate(conditions).etee

    def describe(self) -> str:
        """One-line human-readable description of the PDN."""
        return f"{self.name} PDN"


def peak_domain_powers_w(tdp_w: float, curves: Optional[NominalPowerCurves] = None) -> Dict[DomainKind, float]:
    """Worst-case (power-virus) nominal power of each domain at ``tdp_w``.

    Used to size regulators (Iccmax): the regulator of a rail must support the
    most power-hungry workload that can run on it, which for the compute
    domains is whichever of the CPU-primary or graphics-primary scenarios is
    larger.
    """
    curves = curves if curves is not None else DEFAULT_NOMINAL_CURVES
    require_positive(tdp_w, "tdp_w")
    cores = curves.cores_power_w(tdp_w, WorkloadType.CPU_MULTI_THREAD)
    gfx = curves.gfx_power_w(tdp_w, WorkloadType.GRAPHICS)
    llc = curves.llc_power_w(tdp_w, WorkloadType.CPU_MULTI_THREAD)
    sa, io = curves.uncore_power_w(tdp_w)
    return {
        DomainKind.CORE0: 0.5 * cores,
        DomainKind.CORE1: 0.5 * cores,
        DomainKind.LLC: llc,
        DomainKind.GFX: gfx,
        DomainKind.SA: sa,
        DomainKind.IO: io,
    }


def peak_concurrent_compute_power_w(
    tdp_w: float, curves: Optional[NominalPowerCurves] = None
) -> float:
    """Worst-case *simultaneous* compute-domain power at ``tdp_w``.

    The per-domain peaks of :func:`peak_domain_powers_w` cannot all occur at
    once: a CPU power virus keeps the graphics engines gated and a graphics
    power virus leaves the cores at their secondary allocation.  Regulators
    shared by all compute domains (the ``V_IN`` rails of the IVR, LDO, I+MBVR
    and FlexWatts PDNs) are therefore sized for the larger of the two
    scenarios rather than for the sum of the individual peaks.
    """
    curves = curves if curves is not None else DEFAULT_NOMINAL_CURVES
    require_positive(tdp_w, "tdp_w")
    llc = curves.llc_power_w(tdp_w, WorkloadType.CPU_MULTI_THREAD)
    cpu_scenario = curves.cores_power_w(tdp_w, WorkloadType.CPU_MULTI_THREAD) + llc
    gfx_scenario = (
        curves.gfx_power_w(tdp_w, WorkloadType.GRAPHICS)
        + curves.cores_power_w(tdp_w, WorkloadType.GRAPHICS)
        + llc
    )
    return max(cpu_scenario, gfx_scenario)
