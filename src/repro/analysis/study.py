"""Declarative evaluation studies.

A :class:`Study` is the typed description of a grid of operating points the
paper's PDNspot explores: TDP x application ratio x workload type for active
workloads, TDP x package power state for idle states, optionally crossed with
technology-parameter overrides.  Studies are built either through the fluent
:class:`StudyBuilder` (``Study.builder(...)``) or through the named
convenience constructors (:meth:`Study.over_tdps`,
:meth:`Study.over_application_ratios`, :meth:`Study.over_power_states`).

A study says *what* to evaluate; :meth:`repro.analysis.pdnspot.PdnSpot.run`
(cached, parameter-override aware) says *how* and returns a
:class:`repro.analysis.resultset.ResultSet`.

Scenario iteration order is deterministic -- parameter overrides, then
workload type, then TDP, then application ratio for the active part, followed
by TDP then power state for the idle part -- and is the row order of every
study :class:`~repro.analysis.resultset.ResultSet`.  Every study runner
(:meth:`PdnSpot.run` and the daemon's ``/v1/sweep``) builds its units with
:func:`study_units` and its result with :func:`study_resultset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import (
    Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union,
)

from repro.analysis.resultset import MISSING, Record, ResultSet
from repro.pdn.base import (
    LoadSets,
    OperatingConditions,
    PdnEvaluation,
)
from repro.power.domains import WorkloadType
from repro.power.power_states import BATTERY_LIFE_STATES, PackageCState
from repro.util.errors import ConfigurationError

#: A parameter-override set, normalised to a hashable sorted tuple of pairs.
OverrideKey = Tuple[Tuple[str, object], ...]

#: The default active operating point of the paper's comparisons (AR = 56 %,
#: CPU-intensive), used when a study axis is left unspecified.
DEFAULT_APPLICATION_RATIO = 0.56
DEFAULT_WORKLOAD_TYPE = WorkloadType.CPU_MULTI_THREAD


def _freeze_overrides(overrides: Optional[Mapping[str, object]]) -> OverrideKey:
    if not overrides:
        return ()
    return tuple(sorted(overrides.items()))


@dataclass(frozen=True)
class Scenario:
    """One named point of a study grid.

    An *active* scenario (``power_state`` is ``C0``) carries an application
    ratio and a workload type; an *idle* scenario carries a package C-state
    whose profile fixes the loads.  Either kind may carry technology-parameter
    overrides, applied on top of the evaluating :class:`PdnSpot`'s parameters.
    """

    tdp_w: float
    power_state: PackageCState = PackageCState.C0
    application_ratio: Optional[float] = None
    workload_type: Optional[WorkloadType] = None
    overrides: OverrideKey = ()

    def __post_init__(self) -> None:
        if self.is_active:
            if self.application_ratio is None or self.workload_type is None:
                raise ConfigurationError(
                    "an active (C0) scenario needs an application_ratio and a workload_type"
                )
        elif self.application_ratio is not None or self.workload_type is not None:
            raise ConfigurationError(
                f"a {self.power_state.value} scenario takes its application ratio and "
                "workload type from the power-state profile"
            )

    @property
    def is_active(self) -> bool:
        """Whether this is an active-workload (C0) scenario."""
        return self.power_state is PackageCState.C0

    def conditions(self, load_sets: Optional[LoadSets] = None) -> OperatingConditions:
        """Materialise the scenario as an :class:`OperatingConditions` point.

        ``load_sets`` shares the loads with the other points of a grid
        (see :func:`study_units`).
        """
        if self.is_active:
            return OperatingConditions.for_active_workload(
                self.tdp_w, self.application_ratio, self.workload_type,
                load_sets=load_sets,
            )
        return OperatingConditions.for_power_state(
            self.tdp_w, self.power_state, load_sets=load_sets
        )

    def record_fields(self) -> Record:
        """The scenario's identifying fields, in sweep-row column order."""
        fields_: Record = {"tdp_w": self.tdp_w}
        if self.is_active:
            fields_["application_ratio"] = self.application_ratio
            fields_["workload_type"] = self.workload_type.value
        else:
            fields_["power_state"] = self.power_state.value
        if self.overrides:
            fields_["parameters"] = dict(self.overrides)
        return fields_


@dataclass(frozen=True)
class Study:
    """A named, ordered grid of :class:`Scenario` points.

    Attributes
    ----------
    name:
        Label carried into the produced :class:`ResultSet`.
    scenarios:
        The grid points, in evaluation order.
    pdn_names:
        Optional restriction of the PDN architectures to evaluate; ``None``
        means "every PDN the evaluating engine has".
    """

    name: str
    scenarios: Tuple[Scenario, ...]
    pdn_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a study needs a non-empty name")
        if not self.scenarios:
            raise ConfigurationError(f"study {self.name!r} has no scenarios")

    def __len__(self) -> int:
        return len(self.scenarios)

    @staticmethod
    def builder(name: str = "study") -> "StudyBuilder":
        """Start a fluent :class:`StudyBuilder`."""
        return StudyBuilder(name)

    def with_pdns(self, *names: Union[str, Sequence[str]]) -> "Study":
        """A copy of this study restricted to the named PDN architectures."""
        return Study(
            name=self.name,
            scenarios=self.scenarios,
            pdn_names=tuple(str(name) for name in _flatten(names)),
        )

    # ------------------------------------------------------------------ #
    # Convenience constructors (the three classic sweeps)
    # ------------------------------------------------------------------ #
    @classmethod
    def over_tdps(
        cls,
        tdps_w: Sequence[float],
        application_ratio: float = DEFAULT_APPLICATION_RATIO,
        workload_type: WorkloadType = DEFAULT_WORKLOAD_TYPE,
        name: str = "tdp-sweep",
    ) -> "Study":
        """ETEE-vs-TDP study at one application ratio and workload type."""
        return (
            cls.builder(name)
            .tdps(*tdps_w)
            .application_ratios(application_ratio)
            .workload_types(workload_type)
            .build()
        )

    @classmethod
    def over_application_ratios(
        cls,
        application_ratios: Sequence[float],
        tdp_w: float,
        workload_type: WorkloadType = DEFAULT_WORKLOAD_TYPE,
        name: str = "application-ratio-sweep",
    ) -> "Study":
        """ETEE-vs-AR study at one TDP and workload type."""
        return (
            cls.builder(name)
            .tdps(tdp_w)
            .application_ratios(*application_ratios)
            .workload_types(workload_type)
            .build()
        )

    @classmethod
    def over_power_states(
        cls,
        tdp_w: float,
        power_states: Sequence[PackageCState] = BATTERY_LIFE_STATES,
        name: str = "power-state-sweep",
    ) -> "Study":
        """ETEE study across the battery-life package power states."""
        return cls.builder(name).tdps(tdp_w).power_states(*power_states).build()


def _flatten(values: Tuple[object, ...]) -> List[object]:
    """Accept both ``axis(a, b, c)`` and ``axis([a, b, c])`` call styles."""
    flat: List[object] = []
    for value in values:
        if isinstance(value, (list, tuple)):
            flat.extend(value)
        else:
            flat.append(value)
    return flat


class StudyBuilder:
    """Fluent builder of :class:`Study` grids.

    Example
    -------
    >>> from repro.analysis.study import Study
    >>> from repro.power.domains import WorkloadType
    >>> study = (
    ...     Study.builder("fig4-style-grid")
    ...     .tdps(4.0, 18.0, 50.0)
    ...     .application_ratios(0.4, 0.6, 0.8)
    ...     .workload_types(WorkloadType.CPU_MULTI_THREAD, WorkloadType.GRAPHICS)
    ...     .build()
    ... )
    >>> len(study.scenarios)
    18
    """

    def __init__(self, name: str = "study"):
        self._name = name
        self._tdps_w: List[float] = []
        self._application_ratios: List[float] = []
        self._workload_types: List[WorkloadType] = []
        self._power_states: List[PackageCState] = []
        self._parameter_grid: List[Dict[str, object]] = []
        self._pdn_names: Optional[List[str]] = None
        self._extra_scenarios: List[Scenario] = []

    # Axis setters ------------------------------------------------------ #
    def tdps(self, *tdps_w: Union[float, Sequence[float]]) -> "StudyBuilder":
        """Add TDP levels (watts) to the grid."""
        self._tdps_w.extend(float(value) for value in _flatten(tdps_w))
        return self

    def application_ratios(
        self, *ratios: Union[float, Sequence[float]]
    ) -> "StudyBuilder":
        """Add application ratios to the active part of the grid."""
        self._application_ratios.extend(float(value) for value in _flatten(ratios))
        return self

    def workload_types(
        self, *types: Union[WorkloadType, str, Sequence[object]]
    ) -> "StudyBuilder":
        """Add workload types (enum members or their string values)."""
        for value in _flatten(types):
            self._workload_types.append(
                value if isinstance(value, WorkloadType) else WorkloadType(value)
            )
        return self

    def power_states(
        self, *states: Union[PackageCState, str, Sequence[object]]
    ) -> "StudyBuilder":
        """Add package power states (C0_MIN..C8) to the idle part of the grid."""
        for value in _flatten(states):
            state = value if isinstance(value, PackageCState) else PackageCState(value)
            if state is PackageCState.C0:
                raise ConfigurationError(
                    "C0 is the active state; use application_ratios/workload_types"
                )
            self._power_states.append(state)
        return self

    def parameter_grid(
        self, *overrides: Mapping[str, object]
    ) -> "StudyBuilder":
        """Cross the grid with technology-parameter override sets.

        Each mapping is applied with
        :meth:`PdnTechnologyParameters.with_overrides` by the evaluating
        :class:`PdnSpot`; pass ``{}`` to keep the unperturbed point in the
        grid alongside the variants.
        """
        self._parameter_grid.extend(dict(override) for override in overrides)
        return self

    def pdns(self, *names: Union[str, Sequence[str]]) -> "StudyBuilder":
        """Restrict the study to the named PDN architectures."""
        if self._pdn_names is None:
            self._pdn_names = []
        self._pdn_names.extend(str(name) for name in _flatten(names))
        return self

    def scenario(self, scenario: Scenario) -> "StudyBuilder":
        """Append an explicit :class:`Scenario` after the generated grid."""
        self._extra_scenarios.append(scenario)
        return self

    # Build ------------------------------------------------------------- #
    def build(self) -> Study:
        """Materialise the grid into an immutable :class:`Study`."""
        if not self._tdps_w:
            if not self._extra_scenarios:
                raise ConfigurationError(
                    f"study {self._name!r} needs at least one TDP (or explicit scenario)"
                )
            if (
                self._application_ratios
                or self._workload_types
                or self._power_states
                or self._parameter_grid
            ):
                # Every generated axis is crossed with the TDP axis; without
                # TDPs the configured axes would be silently dropped.
                raise ConfigurationError(
                    f"study {self._name!r} configures grid axes but no TDPs; "
                    "add .tdps(...) or use explicit scenarios only"
                )
        wants_active = bool(self._application_ratios or self._workload_types) or not (
            self._power_states
        )
        ratios = self._application_ratios or [DEFAULT_APPLICATION_RATIO]
        types = self._workload_types or [DEFAULT_WORKLOAD_TYPE]
        override_grid: List[OverrideKey] = [
            _freeze_overrides(overrides) for overrides in self._parameter_grid
        ] or [()]
        scenarios: List[Scenario] = []
        for overrides in override_grid:
            if wants_active and self._tdps_w:
                for workload_type in types:
                    for tdp_w in self._tdps_w:
                        for ratio in ratios:
                            scenarios.append(
                                Scenario(
                                    tdp_w=tdp_w,
                                    application_ratio=ratio,
                                    workload_type=workload_type,
                                    overrides=overrides,
                                )
                            )
            for tdp_w in self._tdps_w:
                for state in self._power_states:
                    scenarios.append(
                        Scenario(tdp_w=tdp_w, power_state=state, overrides=overrides)
                    )
        scenarios.extend(self._extra_scenarios)
        return Study(
            name=self._name,
            scenarios=tuple(scenarios),
            pdn_names=tuple(self._pdn_names) if self._pdn_names is not None else None,
        )


# ---------------------------------------------------------------------- #
# Grid units and result assembly (shared by every study runner)
# ---------------------------------------------------------------------- #
Label = TypeVar("Label")

#: The value columns of every sweep row, after the scenario's fields.
VALUE_COLUMNS = ("etee", "supply_power_w", "nominal_power_w")


def study_units(
    study: Study, names: Sequence[Label]
) -> List[Tuple[Label, OperatingConditions, OverrideKey]]:
    """The evaluation units of ``study``: each scenario crossed with ``names``.

    Units are scenario-major, in grid order.  Every operating point is built
    through one :class:`~repro.pdn.base.LoadSets` memo, so points at the same
    ``(TDP, workload type)`` or power state share one validated, pre-hashed
    load set; the memo is dropped with the call.
    """
    load_sets = LoadSets()
    units: List[Tuple[Label, OperatingConditions, OverrideKey]] = []
    for scenario in study.scenarios:
        conditions = scenario.conditions(load_sets)
        units.extend(zip(names, repeat(conditions), repeat(scenario.overrides)))
    return units


def study_resultset(
    study: Study,
    names: Sequence[str],
    evaluations: Sequence[Optional[PdnEvaluation]],
) -> ResultSet:
    """The sweep-layout :class:`ResultSet` of ``study``, built column by column.

    ``evaluations`` holds one entry per :func:`study_units` unit; a ``None``
    entry (a unit a served deadline cut off) has no row.  Each row is the
    PDN name, the scenario's :meth:`Scenario.record_fields`, then
    :data:`VALUE_COLUMNS`.  Columns appear in first-seen order and cells a
    row lacks are :data:`~repro.analysis.resultset.MISSING` -- the table
    :meth:`ResultSet.from_records` builds from those rows.
    """
    width = len(names)
    pdn: List[str] = []
    kept: List[PdnEvaluation] = []
    rows: List[Tuple[Record, int]] = []
    partial = any(evaluation is None for evaluation in evaluations)
    for index, scenario in enumerate(study.scenarios):
        chunk = evaluations[index * width:(index + 1) * width]
        chunk_names = names
        if partial:
            chunk_names = [name for name, evaluation in zip(names, chunk) if evaluation is not None]
            chunk = [evaluation for evaluation in chunk if evaluation is not None]
        if chunk:
            rows.append((scenario.record_fields(), len(chunk)))
            pdn.extend(chunk_names)
            kept.extend(chunk)
    values = {
        "pdn": pdn,
        "etee": [evaluation.etee for evaluation in kept],
        "supply_power_w": [evaluation.supply_power_w for evaluation in kept],
        "nominal_power_w": [evaluation.nominal_power_w for evaluation in kept],
    }
    # Column order is first-seen key order over the rows; only a new row
    # shape (active or idle, with or without overrides) can add keys.
    order: Dict[str, None] = {}
    shapes = set()
    for fields, _ in rows:
        shape = tuple(fields)
        if shape not in shapes:
            shapes.add(shape)
            order.update(dict.fromkeys(("pdn", *shape, *VALUE_COLUMNS)))
    columns = {
        key: values[key] if key in values else [
            cell for fields, count in rows for cell in repeat(fields.get(key, MISSING), count)
        ]
        for key in order
    }
    return ResultSet(columns, name=study.name)
