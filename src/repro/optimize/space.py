"""Design-space specification for PDN design-space exploration.

A :class:`DesignSpace` describes the set of candidate PDN designs a search
strategy may explore: a *topology* axis (which PDN architectures compete) and
any number of *parameter* axes (technology-parameter overrides modelling
component sizing -- tolerance bands, load-line impedances, regulator
efficiencies, ...), optionally restricted by *constraints* (predicates over
candidate points).  A :class:`DesignPoint` is one candidate: a PDN topology
plus a frozen parameter-override set, picklable and hashable so candidate
evaluations can ride the memo-cached
:class:`~repro.analysis.executor.EvaluationEngine` dispatch path unchanged.

Spaces are built either through the fluent :class:`DesignSpaceBuilder`
(``DesignSpace.builder()``) or the :meth:`DesignSpace.over_pdns` convenience
constructor.  Point enumeration order is deterministic -- parameter-override
combinations in axis declaration order, then topology -- which is what makes
exhaustive and seeded searches reproducible.

Example
-------
>>> from repro.optimize import DesignSpace
>>> space = (
...     DesignSpace.builder("tob-sizing")
...     .pdns("IVR", "FlexWatts")
...     .parameter("ivr_tolerance_band_v", 0.015, 0.020, 0.025)
...     .build()
... )
>>> len(space.points())
6
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.resultset import Record
from repro.analysis.study import OverrideKey, _flatten
from repro.pdn.registry import available_pdns
from repro.power.parameters import PdnTechnologyParameters
from repro.util.errors import ConfigurationError

#: A candidate-point constraint: keep the point when the predicate is true.
Constraint = Callable[["DesignPoint"], bool]


@dataclass(frozen=True)
class DesignPoint:
    """One candidate design: a PDN topology plus parameter overrides.

    Attributes
    ----------
    pdn:
        Name of the PDN architecture (``"IVR"``, ``"FlexWatts"``, ...).
    overrides:
        Technology-parameter overrides as a sorted, hashable tuple of
        ``(field name, value)`` pairs -- the same :data:`OverrideKey` shape
        the Study and Sim engines memo-cache on.
    """

    pdn: str
    overrides: OverrideKey = ()

    def __post_init__(self) -> None:
        """Reject empty names and normalise the overrides to sorted order.

        Sorting here (rather than trusting the caller) keeps equal designs
        equal: an externally constructed point with the same overrides in a
        different order must hash and compare identically, or memo-cache
        keys and strategy dedup sets would silently diverge.
        """
        if not self.pdn:
            raise ConfigurationError("a design point needs a PDN name")
        normalised = tuple(sorted(self.overrides, key=lambda pair: pair[0]))
        if normalised != self.overrides:
            object.__setattr__(self, "overrides", normalised)

    def record_fields(self) -> Record:
        """The point's identifying record fields (sweep-layout convention)."""
        fields: Record = {"pdn": self.pdn}
        if self.overrides:
            fields["parameters"] = dict(self.overrides)
        return fields

    def label(self) -> str:
        """A compact human-readable label (used by tables and logs)."""
        if not self.overrides:
            return self.pdn
        parts = ", ".join(f"{name}={value!r}" for name, value in self.overrides)
        return f"{self.pdn}({parts})"


@dataclass(frozen=True)
class DesignSpace:
    """The searchable space of candidate PDN designs.

    Attributes
    ----------
    name:
        Label carried into produced result sets.
    pdn_names:
        The topology axis (candidate PDN architectures), in order.
    parameter_axes:
        Ordered ``(field name, candidate values)`` pairs; every combination
        of one value per axis forms a parameter-override set.
    constraints:
        Predicates over :class:`DesignPoint`; points failing any constraint
        are excluded from :meth:`points` (and hence from every search).
    """

    name: str = "design-space"
    pdn_names: Tuple[str, ...] = ()
    parameter_axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    constraints: Tuple[Constraint, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        """Validate the axes fail-fast (empty axes make the space empty)."""
        if not self.name:
            raise ConfigurationError("a design space needs a non-empty name")
        if not self.pdn_names:
            raise ConfigurationError(
                f"design space {self.name!r} has no PDN topology axis"
            )
        known_fields = {
            parameter.name
            for parameter in dataclasses.fields(PdnTechnologyParameters)
        }
        seen: set = set()
        for axis_name, values in self.parameter_axes:
            if axis_name in seen:
                raise ConfigurationError(
                    f"design space {self.name!r} declares parameter axis "
                    f"{axis_name!r} twice"
                )
            seen.add(axis_name)
            if axis_name not in known_fields:
                raise ConfigurationError(
                    f"parameter axis {axis_name!r} is not a technology "
                    f"parameter; available: {', '.join(sorted(known_fields))}"
                )
            if not values:
                raise ConfigurationError(
                    f"parameter axis {axis_name!r} of design space "
                    f"{self.name!r} has no values"
                )

    @staticmethod
    def builder(name: str = "design-space") -> "DesignSpaceBuilder":
        """Start a fluent :class:`DesignSpaceBuilder`."""
        return DesignSpaceBuilder(name)

    @classmethod
    def over_pdns(
        cls,
        pdn_names: Optional[Sequence[str]] = None,
        name: str = "pdn-topologies",
    ) -> "DesignSpace":
        """A topology-only space (every registered PDN by default)."""
        names = tuple(pdn_names) if pdn_names is not None else tuple(available_pdns())
        return cls(name=name, pdn_names=names)

    @property
    def grid_size(self) -> int:
        """Number of grid combinations before constraint filtering."""
        size = len(self.pdn_names)
        for _, values in self.parameter_axes:
            size *= len(values)
        return size

    def points(self) -> Tuple[DesignPoint, ...]:
        """Every admissible candidate point, in deterministic grid order.

        Parameter-override combinations iterate in axis declaration order
        (outer axes vary slowest), then the topology axis -- mirroring the
        override-then-scenario nesting of the Study builders -- and
        constraint-violating points are dropped.
        """
        axis_names = [axis_name for axis_name, _ in self.parameter_axes]
        axis_values = [values for _, values in self.parameter_axes]
        points: List[DesignPoint] = []
        for combination in itertools.product(*axis_values):
            overrides: OverrideKey = tuple(
                sorted(zip(axis_names, combination))
            )
            for pdn_name in self.pdn_names:
                point = DesignPoint(pdn=pdn_name, overrides=overrides)
                if all(constraint(point) for constraint in self.constraints):
                    points.append(point)
        if not points:
            raise ConfigurationError(
                f"design space {self.name!r} has no admissible points "
                "(constraints excluded the whole grid)"
            )
        return tuple(points)


class DesignSpaceBuilder:
    """Fluent builder of :class:`DesignSpace` instances.

    Example
    -------
    >>> space = (
    ...     DesignSpace.builder("hybrid-vs-baselines")
    ...     .pdns("IVR", "MBVR", "LDO", "FlexWatts")
    ...     .parameter("flexwatts_loadline_scale", 1.05, 1.12)
    ...     .constraint(lambda point: point.pdn != "LDO" or not point.overrides)
    ...     .build()
    ... )
    """

    def __init__(self, name: str = "design-space"):
        self._name = name
        self._pdn_names: List[str] = []
        self._parameter_axes: List[Tuple[str, Tuple[object, ...]]] = []
        self._constraints: List[Constraint] = []

    def pdns(self, *names: Union[str, Sequence[str]]) -> "DesignSpaceBuilder":
        """Add PDN architectures to the topology axis."""
        self._pdn_names.extend(str(name) for name in _flatten(names))
        return self

    def parameter(
        self, axis_name: str, *values: Union[object, Sequence[object]]
    ) -> "DesignSpaceBuilder":
        """Add a technology-parameter axis (component-sizing candidates).

        ``axis_name`` must be a field of
        :class:`~repro.power.parameters.PdnTechnologyParameters`; it is
        applied through ``with_overrides`` by the evaluating engines.
        """
        self._parameter_axes.append((axis_name, tuple(_flatten(values))))
        return self

    def constraint(self, predicate: Constraint) -> "DesignSpaceBuilder":
        """Restrict the space to points satisfying ``predicate``."""
        self._constraints.append(predicate)
        return self

    def build(self) -> DesignSpace:
        """Materialise the axes into an immutable :class:`DesignSpace`."""
        names = self._pdn_names or available_pdns()
        return DesignSpace(
            name=self._name,
            pdn_names=tuple(names),
            parameter_axes=tuple(self._parameter_axes),
            constraints=tuple(self._constraints),
        )


def freeze_parameter_overrides(
    overrides: Dict[str, object]
) -> OverrideKey:
    """Normalise a parameter-override mapping to the hashable key shape."""
    return tuple(sorted(overrides.items()))
