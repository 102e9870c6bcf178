"""Request and response protocol of the evaluation service.

The daemon speaks plain HTTP/1.1 + JSON (stdlib only, see
:mod:`repro.serve.server`); this module defines the *shape* of that traffic
independently of any transport:

* typed request dataclasses (:class:`SweepRequest`, :class:`SimulateRequest`,
  :class:`OptimizeRequest`) that know how to materialise themselves into the
  library's evaluation inputs (:class:`~repro.analysis.study.Study`,
  :class:`~repro.sim.study.SimStudy`,
  :class:`~repro.optimize.space.DesignSpace`);
* strict parsers from decoded JSON bodies that reject malformed input with a
  :class:`ProtocolError` carrying a *schema pointer* (``body/tdps/2``) so a
  client sees exactly which field failed validation;
* the study/space builders shared with the CLI -- ``repro sweep ...`` flags
  and a ``POST /v1/sweep`` body build the **same** grid through the same
  functions, which is what makes server responses bit-identical to local
  runs.

Every request also carries the optional execution-control fields
``timeout_s`` (server-capped per-request deadline) and ``allow_partial``
(return the completed subset with ``status: "partial"`` instead of a 504 on
deadline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.study import Study
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.util.errors import ReproError
from repro.workloads.scenarios import DEFAULT_SEED, available_scenarios

if TYPE_CHECKING:  # imported where used: a sweep never loads sim or optimize
    from repro.optimize.space import DesignSpace
    from repro.sim.study import SimStudy

class ProtocolError(ReproError):
    """A request body that does not match the endpoint's schema.

    Parameters
    ----------
    pointer:
        Slash-separated path into the JSON body naming the offending field
        (``body``, ``body/tdps``, ``body/params/ivr_tolerance_band_v/1``).
    message:
        What the schema expected at that location.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        self.message = message
        super().__init__(f"{pointer}: {message}")


# --------------------------------------------------------------------------- #
# Study / space builders (shared verbatim with the CLI sub-commands)
# --------------------------------------------------------------------------- #
def build_sweep_study(
    tdps: Sequence[float],
    ars: Optional[Sequence[float]] = None,
    workloads: Optional[Sequence[WorkloadType]] = None,
    power_states: Optional[Sequence[PackageCState]] = None,
    pdns: Optional[Sequence[str]] = None,
) -> Study:
    """Assemble sweep axes (CLI flags or request fields) into a :class:`Study`."""
    builder = Study.builder("cli-sweep").tdps(*tdps)
    if ars:
        builder.application_ratios(*ars)
    if workloads:
        builder.workload_types(*workloads)
    if power_states:
        builder.power_states(*power_states)
    if pdns:
        builder.pdns(*pdns)
    return builder.build()


def build_simulate_study(
    scenarios: Optional[Sequence[str]] = None,
    tdps: Sequence[float] = (18.0,),
    seed: int = DEFAULT_SEED,
    pdns: Optional[Sequence[str]] = None,
) -> SimStudy:
    """Assemble simulate axes (CLI flags or request fields) into a :class:`SimStudy`."""
    from repro.sim.study import SimStudy

    builder = (
        SimStudy.builder("cli-simulate")
        .scenarios(*(scenarios if scenarios else available_scenarios()))
        .tdps(*tdps)
        .seeds(seed)
    )
    if pdns:
        builder.pdns(*pdns)
    return builder.build()


def build_optimize_space(
    pdns: Optional[Sequence[str]] = None,
    param_axes: Optional[Sequence[Tuple[str, Sequence[object]]]] = None,
) -> DesignSpace:
    """Assemble optimize axes (CLI flags or request fields) into a :class:`DesignSpace`."""
    from repro.optimize.space import DesignSpace

    builder = DesignSpace.builder("cli-optimize")
    if pdns:
        builder.pdns(*pdns)
    for name, values in param_axes or ():
        builder.parameter(name, *values)
    return builder.build()


# --------------------------------------------------------------------------- #
# Field validators (every reader reports failures by schema pointer)
# --------------------------------------------------------------------------- #
def _require_object(body: object) -> Mapping[str, object]:
    if not isinstance(body, Mapping):
        raise ProtocolError("body", "expected a JSON object")
    return body


def _reject_unknown_fields(
    body: Mapping[str, object], known: Sequence[str]
) -> None:
    for name in body:
        if name not in known:
            raise ProtocolError(
                f"body/{name}",
                f"unknown field; expected one of: {', '.join(known)}",
            )


def _read_number(item: object, pointer: str) -> float:
    """``item`` as a float, if it is a finite JSON number.

    ``json.loads`` decodes ``Infinity`` and ``NaN`` as floats and any digit
    string as an int, which may be too large for a float.
    """
    if isinstance(item, bool) or not isinstance(item, (int, float)):
        raise ProtocolError(pointer, "expected a number")
    try:
        number = float(item)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ProtocolError(pointer, "expected a finite number")
    return number


def _read_number_list(
    body: Mapping[str, object], name: str, required: bool = False
) -> Optional[List[float]]:
    if name not in body or body[name] is None:
        if required:
            raise ProtocolError(f"body/{name}", "required field is missing")
        return None
    value = body[name]
    if not isinstance(value, (list, tuple)) or not value:
        raise ProtocolError(f"body/{name}", "expected a non-empty array of numbers")
    return [_read_number(item, f"body/{name}/{index}") for index, item in enumerate(value)]


def _read_string_list(
    body: Mapping[str, object],
    name: str,
    choices: Optional[Sequence[str]] = None,
) -> Optional[List[str]]:
    if name not in body or body[name] is None:
        return None
    value = body[name]
    if not isinstance(value, (list, tuple)) or not value:
        raise ProtocolError(f"body/{name}", "expected a non-empty array of strings")
    strings: List[str] = []
    for index, item in enumerate(value):
        if not isinstance(item, str):
            raise ProtocolError(f"body/{name}/{index}", "expected a string")
        if choices is not None and item not in choices:
            raise ProtocolError(
                f"body/{name}/{index}",
                f"unknown value {item!r}; choose from: {', '.join(choices)}",
            )
        strings.append(item)
    return strings


def _read_int(
    body: Mapping[str, object], name: str, default: Optional[int] = None
) -> Optional[int]:
    if name not in body or body[name] is None:
        return default
    value = body[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"body/{name}", "expected an integer")
    return value


def _read_bool(body: Mapping[str, object], name: str, default: bool = False) -> bool:
    if name not in body or body[name] is None:
        return default
    value = body[name]
    if not isinstance(value, bool):
        raise ProtocolError(f"body/{name}", "expected a boolean")
    return value


def _read_timeout(body: Mapping[str, object]) -> Optional[float]:
    if "timeout_s" not in body or body["timeout_s"] is None:
        return None
    value = body["timeout_s"]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
        raise ProtocolError("body/timeout_s", "expected a positive number of seconds")
    return float(value)


def _read_workloads(body: Mapping[str, object]) -> Optional[List[WorkloadType]]:
    names = _read_string_list(
        body, "workloads", choices=[member.value for member in WorkloadType]
    )
    if names is None:
        return None
    return [WorkloadType(name) for name in names]


def _read_power_states(body: Mapping[str, object]) -> Optional[List[PackageCState]]:
    choices = [
        member.value for member in PackageCState if member is not PackageCState.C0
    ]
    names = _read_string_list(body, "power_states", choices=choices)
    if names is None:
        return None
    return [PackageCState(name) for name in names]


def _read_param_axes(
    body: Mapping[str, object],
) -> List[Tuple[str, List[float]]]:
    if "params" not in body or body["params"] is None:
        return []
    value = body["params"]
    if not isinstance(value, Mapping) or not value:
        raise ProtocolError(
            "body/params", "expected a non-empty object of name -> number arrays"
        )
    axes: List[Tuple[str, List[float]]] = []
    for name, values in value.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ProtocolError(
                f"body/params/{name}", "expected a non-empty array of numbers"
            )
        parsed = [
            _read_number(item, f"body/params/{name}/{index}") for index, item in enumerate(values)
        ]
        axes.append((str(name), parsed))
    return axes


# --------------------------------------------------------------------------- #
# Request dataclasses
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SweepRequest:
    """A ``POST /v1/sweep`` body: the axes of one analytic study grid."""

    tdps: Tuple[float, ...]
    ars: Optional[Tuple[float, ...]] = None
    workloads: Optional[Tuple[WorkloadType, ...]] = None
    power_states: Optional[Tuple[PackageCState, ...]] = None
    pdns: Optional[Tuple[str, ...]] = None
    timeout_s: Optional[float] = None
    allow_partial: bool = False

    def study(self) -> Study:
        """Materialise the request into the study the CLI would build."""
        return build_sweep_study(
            self.tdps, self.ars, self.workloads, self.power_states, self.pdns
        )


@dataclass(frozen=True)
class SimulateRequest:
    """A ``POST /v1/simulate`` body: the axes of one scenario-simulation grid."""

    scenarios: Optional[Tuple[str, ...]] = None
    tdps: Tuple[float, ...] = (18.0,)
    seed: int = DEFAULT_SEED
    pdns: Optional[Tuple[str, ...]] = None
    timeout_s: Optional[float] = None
    allow_partial: bool = False

    def study(self) -> SimStudy:
        """Materialise the request into the sim study the CLI would build."""
        return build_simulate_study(self.scenarios, self.tdps, self.seed, self.pdns)


def _default_objectives() -> Tuple[str, ...]:
    from repro.optimize.objectives import DEFAULT_OBJECTIVES

    return tuple(DEFAULT_OBJECTIVES)


@dataclass(frozen=True)
class OptimizeRequest:
    """A ``POST /v1/optimize`` body: one design-space search."""

    objectives: Tuple[str, ...] = field(default_factory=_default_objectives)
    strategy: str = "grid"
    budget: Optional[int] = None
    seed: int = 0
    pdns: Optional[Tuple[str, ...]] = None
    params: Tuple[Tuple[str, Tuple[float, ...]], ...] = field(default_factory=tuple)
    tdps: Optional[Tuple[float, ...]] = None
    scenarios: Optional[Tuple[str, ...]] = None
    timeout_s: Optional[float] = None

    def space(self) -> DesignSpace:
        """Materialise the request into the design space the CLI would build."""
        return build_optimize_space(
            self.pdns, [(name, list(values)) for name, values in self.params]
        )


_SWEEP_FIELDS = (
    "tdps", "ars", "workloads", "power_states", "pdns", "timeout_s", "allow_partial",
)
_SIMULATE_FIELDS = (
    "scenarios", "tdps", "seed", "pdns", "timeout_s", "allow_partial",
)
_OPTIMIZE_FIELDS = (
    "objectives", "strategy", "budget", "seed", "pdns", "params", "tdps",
    "scenarios", "timeout_s",
)


def parse_sweep_request(body: object) -> SweepRequest:
    """Validate a decoded ``/v1/sweep`` JSON body into a :class:`SweepRequest`."""
    mapping = _require_object(body)
    _reject_unknown_fields(mapping, _SWEEP_FIELDS)
    tdps = _read_number_list(mapping, "tdps", required=True)
    ars = _read_number_list(mapping, "ars")
    workloads = _read_workloads(mapping)
    power_states = _read_power_states(mapping)
    pdns = _read_string_list(mapping, "pdns")
    return SweepRequest(
        tdps=tuple(tdps),
        ars=tuple(ars) if ars is not None else None,
        workloads=tuple(workloads) if workloads is not None else None,
        power_states=tuple(power_states) if power_states is not None else None,
        pdns=tuple(pdns) if pdns is not None else None,
        timeout_s=_read_timeout(mapping),
        allow_partial=_read_bool(mapping, "allow_partial"),
    )


def parse_simulate_request(body: object) -> SimulateRequest:
    """Validate a decoded ``/v1/simulate`` JSON body into a :class:`SimulateRequest`."""
    mapping = _require_object(body)
    _reject_unknown_fields(mapping, _SIMULATE_FIELDS)
    scenarios = _read_string_list(mapping, "scenarios", choices=available_scenarios())
    tdps = _read_number_list(mapping, "tdps")
    pdns = _read_string_list(mapping, "pdns")
    return SimulateRequest(
        scenarios=tuple(scenarios) if scenarios is not None else None,
        tdps=tuple(tdps) if tdps is not None else (18.0,),
        seed=_read_int(mapping, "seed", default=DEFAULT_SEED),
        pdns=tuple(pdns) if pdns is not None else None,
        timeout_s=_read_timeout(mapping),
        allow_partial=_read_bool(mapping, "allow_partial"),
    )


def parse_optimize_request(body: object) -> OptimizeRequest:
    """Validate a decoded ``/v1/optimize`` JSON body into an :class:`OptimizeRequest`."""
    from repro.optimize.objectives import OBJECTIVES
    from repro.optimize.strategies import STRATEGIES

    mapping = _require_object(body)
    _reject_unknown_fields(mapping, _OPTIMIZE_FIELDS)
    objectives = _read_string_list(mapping, "objectives", choices=sorted(OBJECTIVES))
    strategy = mapping.get("strategy", "grid")
    if strategy is None:
        strategy = "grid"
    if not isinstance(strategy, str) or strategy not in STRATEGIES:
        raise ProtocolError(
            "body/strategy",
            f"unknown strategy; choose from: {', '.join(sorted(STRATEGIES))}",
        )
    budget = _read_int(mapping, "budget")
    if budget is not None and budget < 1:
        raise ProtocolError("body/budget", "expected a positive integer")
    tdps = _read_number_list(mapping, "tdps")
    scenarios = _read_string_list(mapping, "scenarios", choices=available_scenarios())
    pdns = _read_string_list(mapping, "pdns")
    return OptimizeRequest(
        objectives=(
            tuple(objectives) if objectives is not None else _default_objectives()
        ),
        strategy=strategy,
        budget=budget,
        seed=_read_int(mapping, "seed", default=0),
        pdns=tuple(pdns) if pdns is not None else None,
        params=tuple(
            (name, tuple(values)) for name, values in _read_param_axes(mapping)
        ),
        tdps=tuple(tdps) if tdps is not None else None,
        scenarios=tuple(scenarios) if scenarios is not None else None,
        timeout_s=_read_timeout(mapping),
    )
