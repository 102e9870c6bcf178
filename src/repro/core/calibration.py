"""Calibration of the FlexWatts mode-prediction tables.

A shipping product would populate the PMU's ETEE curve tables from pre-silicon
power models and post-silicon characterisation.  Here the tables are populated
from PDNspot itself: the hybrid PDN is evaluated with each mode forced across
a grid of (workload type, TDP, application ratio) operating points and across
the package power states, and the resulting ETEE curves are stored in an
:class:`~repro.core.mode_predictor.EteeCurveSet` per mode.

The tables depend only on the technology parameters and the grid, so they are
a constant of the process: :func:`build_default_predictor` calibrates each
``(parameter set, grid)`` once and hands every later exact
:class:`~repro.core.flexwatts.FlexWattsPdn` -- in any engine, on any thread --
the same sealed :class:`~repro.core.mode_predictor.ModePredictor`.  A
subclass, or an instance whose sides are built on other parameters,
calibrates afresh.

The grid defaults match the paper's evaluation space: TDPs of 4--50 W,
application ratios of 40--80 %, the three active workload types, and the
battery-life power states C0_MIN and C2--C8.
"""

from __future__ import annotations

import dataclasses
import threading
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from repro.core.hybrid_vr import PdnMode
from repro.core.mode_predictor import EteeCurveSet, ModePredictor
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.pdn.base import LoadSets, OperatingConditions
from repro.power.domains import WorkloadType
from repro.power.parameters import PdnTechnologyParameters
from repro.power.power_states import BATTERY_LIFE_STATES, PackageCState

#: Default TDP grid (watts) -- the TDP levels evaluated throughout the paper.
DEFAULT_TDP_GRID_W: Sequence[float] = (4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0)

#: Default application-ratio grid -- the 40--80 % range of Fig. 4.
DEFAULT_AR_GRID: Sequence[float] = (0.40, 0.50, 0.56, 0.60, 0.70, 0.80)

#: Workload types with active (C0) ETEE curves.
ACTIVE_WORKLOAD_TYPES: Sequence[WorkloadType] = (
    WorkloadType.CPU_SINGLE_THREAD,
    WorkloadType.CPU_MULTI_THREAD,
    WorkloadType.GRAPHICS,
)

#: Reference TDP at which the power-state curves are characterised.  Package
#: C-state power is nearly TDP-independent (Sec. 7.1), so one curve suffices.
POWER_STATE_REFERENCE_TDP_W = 18.0

#: How many mode-curve calibrations this process has run: two (one per mode)
#: per distinct parameter set and grid, plus two per predictor built outside
#: the memo; memo hits run none.
_CALIBRATIONS = METRICS.counter("flexwatts.calibrations")

#: Calibrated predictors keyed by ``(parameter set by value, grid)``.  Model
#: state, not evaluation results: shared whatever an engine's
#: ``enable_cache``.  Cleared when full, like the columnar peak-power memo.
_PREDICTORS: Dict[Tuple[object, ...], ModePredictor] = {}
_PREDICTORS_LOCK = threading.Lock()
_PREDICTORS_BOUND = 64


def calibrate_mode_curves(
    flexwatts,
    mode: PdnMode,
    tdp_grid_w: Sequence[float] = DEFAULT_TDP_GRID_W,
    ar_grid: Sequence[float] = DEFAULT_AR_GRID,
    power_states: Sequence[PackageCState] = BATTERY_LIFE_STATES,
) -> EteeCurveSet:
    """Build the ETEE curve set of one hybrid-PDN mode.

    Parameters
    ----------
    flexwatts:
        The :class:`~repro.core.flexwatts.FlexWattsPdn` instance to
        characterise (its Table-2 parameters are what get baked into the
        tables).
    mode:
        The hybrid-PDN mode to characterise.
    tdp_grid_w / ar_grid / power_states:
        The characterisation grid.
    """
    # Imported lazily: repro.pdn.columnar lazily imports this package in the
    # other direction, and neither import may run at module-import time.
    from repro.pdn.columnar import evaluate_columns

    conditions = _calibration_conditions(
        tuple(tdp_grid_w), tuple(ar_grid), tuple(power_states)
    )
    _CALIBRATIONS.inc()
    with obs_trace.span("flexwatts.calibrate", category="calibration",
                        mode=mode.value, points=len(conditions)):
        evaluations = evaluate_columns(flexwatts, conditions, mode=mode)
    etee_iter = iter(evaluations)
    curves = EteeCurveSet()
    for workload_type in ACTIVE_WORKLOAD_TYPES:
        for tdp_w in tdp_grid_w:
            etees = [next(etee_iter).etee for _ in ar_grid]
            curves.add_active_curve(workload_type, tdp_w, ar_grid, etees)
    for state in power_states:
        curves.add_power_state_etee(state, next(etee_iter).etee)
    curves.seal(f"{flexwatts.name}[{mode.value}]")
    return curves


@lru_cache(maxsize=8)
def _calibration_conditions(tdp_grid_w, ar_grid, power_states):
    """The characterisation grid's operating points, built once per grid.

    Operating points describe the workload, not the PDN: every hybrid
    instance calibrated over the same grid -- both of its modes, and any
    number of parameter-override variants -- shares one conditions list.
    The points of one ``(TDP, workload type)`` pair share one load set.
    """
    load_sets = LoadSets()
    active = [
        OperatingConditions.for_active_workload(
            tdp_w=tdp_w,
            application_ratio=ar,
            workload_type=workload_type,
            load_sets=load_sets,
        )
        for workload_type in ACTIVE_WORKLOAD_TYPES
        for tdp_w in tdp_grid_w
        for ar in ar_grid
    ]
    states = [
        OperatingConditions.for_power_state(
            POWER_STATE_REFERENCE_TDP_W, state, load_sets=load_sets
        )
        for state in power_states
    ]
    return active + states


def build_default_predictor(
    flexwatts,
    tdp_grid_w: Sequence[float] = DEFAULT_TDP_GRID_W,
    ar_grid: Sequence[float] = DEFAULT_AR_GRID,
    power_states: Optional[Sequence[PackageCState]] = None,
) -> ModePredictor:
    """The Algorithm-1 predictor for a FlexWatts instance.

    An exact instance reads the process-wide memo, filling it on a miss;
    any other instance calibrates through its own models.
    Two threads racing on one key both calibrate; the first one stored wins.
    """
    grid = (
        tuple(tdp_grid_w),
        tuple(ar_grid),
        tuple(power_states) if power_states is not None else BATTERY_LIFE_STATES,
    )
    key = _memo_key(flexwatts, grid)
    if key is not None:
        with _PREDICTORS_LOCK:
            predictor = _PREDICTORS.get(key)
        if predictor is not None:
            return predictor
    predictor = ModePredictor(
        ivr_curves=calibrate_mode_curves(flexwatts, PdnMode.IVR_MODE, *grid),
        ldo_curves=calibrate_mode_curves(flexwatts, PdnMode.LDO_MODE, *grid),
    )
    if key is None:
        return predictor
    with _PREDICTORS_LOCK:
        if key not in _PREDICTORS and len(_PREDICTORS) >= _PREDICTORS_BOUND:
            _PREDICTORS.clear()
        return _PREDICTORS.setdefault(key, predictor)


def _memo_key(flexwatts, grid) -> Optional[Tuple[object, ...]]:
    """The memo key of ``flexwatts`` over ``grid``, or ``None`` to bypass the memo.

    Only an exact :class:`~repro.core.flexwatts.FlexWattsPdn` with both
    sides built on its own parameter set is keyed.  The key holds the grid
    and every parameter field by value -- floats by ``repr``, so keys are equal exactly when the
    calibrations would read the same numbers.
    """
    # Imported lazily: repro.core.flexwatts imports this module on first use.
    from repro.core.flexwatts import FlexWattsPdn

    parameters = flexwatts.parameters
    if (
        type(flexwatts) is not FlexWattsPdn
        or type(parameters) is not PdnTechnologyParameters
        or flexwatts._ivr_mode_model.parameters is not parameters
        or flexwatts._ldo_mode_model.parameters is not parameters
    ):
        return None
    values = (getattr(parameters, field.name) for field in dataclasses.fields(parameters))
    return grid + tuple(
        tuple(sorted((kind.value, repr(item)) for kind, item in value.items()))
        if isinstance(value, dict) else repr(value)
        for value in values
    )
