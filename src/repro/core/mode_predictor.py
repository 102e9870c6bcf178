"""FlexWatts' runtime mode-prediction algorithm (Algorithm 1).

The predictor stores two sets of ETEE curves inside the PMU firmware -- one
describing the hybrid PDN in IVR-Mode and one in LDO-Mode.  Each set is a
multi-dimensional table: for every (workload type, TDP) pair an ETEE-vs-AR
curve, plus one ETEE value per package power state for the battery-life
states.  Every evaluation interval (~10 ms) the PMU estimates the algorithm's
inputs (TDP, AR, workload type, power state), looks up the expected ETEE of
each mode, and selects the mode with the higher ETEE::

    IVR_ETEE = estimate_IVR_ETEE(TDP, AR, WL_TYPE, PS)
    LDO_ETEE = estimate_LDO_ETEE(TDP, AR, WL_TYPE, PS)
    return IVR-Mode if IVR_ETEE >= LDO_ETEE else LDO-Mode

The curve tables are populated by :mod:`repro.core.calibration`, mirroring how
a real product would populate them from pre-silicon models or post-silicon
characterisation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.soc.pmu import PmuTelemetry
from repro.core.hybrid_vr import PdnMode
from repro.util.errors import ConfigurationError, ModelDomainError
from repro.util.interpolate import LinearTable1D, StackedTables1D
from repro.util.validation import require_fraction, require_positive


@dataclass
class EteeCurveSet:
    """Firmware-style ETEE curve tables for one hybrid-PDN mode.

    The active-workload tables are keyed by workload type and TDP; queries at
    TDPs between two stored curves interpolate linearly between them, and
    queries outside the stored range clamp to the nearest curve (the same
    behaviour a PMU table lookup has).

    A set is mutable until :meth:`seal`; calibration seals the sets it
    builds, because one calibrated predictor is shared across engines and
    threads.
    """

    #: workload type -> sorted list of (tdp_w, AR->ETEE curve).
    active_curves: Dict[WorkloadType, List[Tuple[float, LinearTable1D]]] = field(
        default_factory=dict
    )
    #: package power state -> ETEE.
    power_state_etee: Dict[PackageCState, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # workload type -> (curves, TDP array, StackedTables1D); not a field,
        # so equality, repr and canonical keys see only the stored curves.
        self._stacked: Dict[WorkloadType, tuple] = {}
        self._sealed_as: Optional[str] = None

    def seal(self, name: str) -> None:
        """Freeze the stored curves: later ``add_*`` calls raise, naming ``name``."""
        self._sealed_as = name

    def _require_unsealed(self) -> None:
        if self._sealed_as is not None:
            raise ConfigurationError(
                f"the {self._sealed_as} ETEE curve set is sealed: calibrated "
                "tables are shared; build a new EteeCurveSet to change them"
            )

    def add_active_curve(
        self,
        workload_type: WorkloadType,
        tdp_w: float,
        application_ratios: Sequence[float],
        etees: Sequence[float],
    ) -> None:
        """Store the ETEE-vs-AR curve for (``workload_type``, ``tdp_w``)."""
        self._require_unsealed()
        require_positive(tdp_w, "tdp_w")
        curve = LinearTable1D(application_ratios, etees)
        curves = self.active_curves.setdefault(workload_type, [])
        curves.append((tdp_w, curve))
        curves.sort(key=lambda item: item[0])

    def add_power_state_etee(self, state: PackageCState, etee: float) -> None:
        """Store the ETEE of a package power state."""
        self._require_unsealed()
        self.power_state_etee[state] = require_fraction(etee, "etee")

    def etee(
        self,
        tdp_w: float,
        application_ratio: float,
        workload_type: WorkloadType,
        power_state: PackageCState,
    ) -> float:
        """Look up the expected ETEE for the given Algorithm-1 inputs."""
        if power_state.is_idle or workload_type is WorkloadType.IDLE:
            return self._power_state_lookup(power_state)
        return self._active_lookup(tdp_w, application_ratio, workload_type)

    # ------------------------------------------------------------------ #
    # Internal lookups
    # ------------------------------------------------------------------ #
    def _power_state_lookup(self, power_state: PackageCState) -> float:
        if power_state in self.power_state_etee:
            return self.power_state_etee[power_state]
        # C0/C0_MIN idle-classified workloads fall back to the shallowest
        # stored idle state.
        if self.power_state_etee:
            shallowest = sorted(self.power_state_etee, key=lambda state: state.value)[0]
            return self.power_state_etee[shallowest]
        raise ModelDomainError("no power-state ETEE curves stored in this curve set")

    def _stored_curves(
        self, workload_type: WorkloadType
    ) -> List[Tuple[float, LinearTable1D]]:
        curves = self.active_curves.get(workload_type)
        if not curves:
            raise ModelDomainError(
                f"no ETEE curves stored for workload type {workload_type}"
            )
        return curves

    def _active_lookup(
        self, tdp_w: float, application_ratio: float, workload_type: WorkloadType
    ) -> float:
        curves = self._stored_curves(workload_type)
        tdps = [tdp for tdp, _ in curves]
        if tdp_w <= tdps[0]:
            return curves[0][1](application_ratio)
        if tdp_w >= tdps[-1]:
            return curves[-1][1](application_ratio)
        hi = bisect_left(tdps, tdp_w)
        lo = hi - 1
        low_tdp, low_curve = curves[lo]
        high_tdp, high_curve = curves[hi]
        weight = (tdp_w - low_tdp) / (high_tdp - low_tdp)
        return low_curve(application_ratio) * (1.0 - weight) + high_curve(
            application_ratio
        ) * weight

    def etee_many(
        self,
        tdp_w,
        application_ratio,
        workload_type: WorkloadType,
        power_state: PackageCState,
    ):
        """:meth:`etee` over float64 arrays of TDPs and ARs.

        Every element shares ``workload_type`` and ``power_state``; element
        for element the result equals :meth:`etee`.  Idle lookups broadcast
        the one stored value; active lookups read the two stored AR curves
        around each TDP through one :class:`StackedTables1D` and blend them
        with the scalar path's clamping, bisection
        (``np.searchsorted(side="left")``) and arithmetic.
        """
        import numpy as np  # only batch callers pay for numpy

        if power_state.is_idle or workload_type is WorkloadType.IDLE:
            return np.full(len(tdp_w), self._power_state_lookup(power_state))
        tdps, tables = self._stacked_curves(workload_type)
        below = tdp_w <= tdps[0]
        above = tdp_w >= tdps[-1]
        inside = ~(below | above)
        # Lanes outside the stored range read the one curve they clamp to.
        hi = np.where(below, 0, np.where(above, len(tdps) - 1, np.searchsorted(tdps, tdp_w)))
        lo = np.where(inside, hi - 1, hi)
        etees = tables.evaluate(np.concatenate((lo, hi)), np.tile(application_ratio, 2))
        low_etee, high_etee = etees[: len(tdp_w)], etees[len(tdp_w) :]
        weight = (tdp_w - tdps[lo]) / np.where(inside, tdps[hi] - tdps[lo], 1.0)
        return np.where(inside, low_etee * (1.0 - weight) + high_etee * weight, high_etee)

    def _stacked_curves(self, workload_type: WorkloadType):
        """The stored TDPs and AR curves of ``workload_type`` as arrays.

        Built on the first batch lookup and rebuilt only when the stored
        curves change.
        """
        curves = self._stored_curves(workload_type)
        stacked = self._stacked.get(workload_type)
        if stacked is None or stacked[0] != curves:
            import numpy as np  # only batch callers pay for numpy

            stacked = (
                list(curves),
                np.array([tdp for tdp, _ in curves]),
                StackedTables1D([curve for _, curve in curves]),
            )
            self._stacked[workload_type] = stacked
        return stacked[1], stacked[2]

    def stored_tdps_w(self, workload_type: WorkloadType) -> List[float]:
        """TDP grid points stored for ``workload_type`` (for introspection)."""
        return [tdp for tdp, _ in self.active_curves.get(workload_type, [])]


class ModePredictor:
    """Algorithm 1: choose the hybrid-PDN mode with the higher expected ETEE."""

    def __init__(self, ivr_curves: EteeCurveSet, ldo_curves: EteeCurveSet):
        if not ivr_curves.active_curves and not ivr_curves.power_state_etee:
            raise ConfigurationError("the IVR-Mode curve set is empty")
        if not ldo_curves.active_curves and not ldo_curves.power_state_etee:
            raise ConfigurationError("the LDO-Mode curve set is empty")
        self._ivr_curves = ivr_curves
        self._ldo_curves = ldo_curves

    @property
    def ivr_curves(self) -> EteeCurveSet:
        """The stored IVR-Mode ETEE curves."""
        return self._ivr_curves

    @property
    def ldo_curves(self) -> EteeCurveSet:
        """The stored LDO-Mode ETEE curves."""
        return self._ldo_curves

    def estimate_etee(self, mode: PdnMode, telemetry: PmuTelemetry) -> float:
        """Expected ETEE of ``mode`` for the given telemetry."""
        curves = self._ivr_curves if mode is PdnMode.IVR_MODE else self._ldo_curves
        return curves.etee(
            tdp_w=telemetry.tdp_w,
            application_ratio=telemetry.application_ratio,
            workload_type=telemetry.workload_type,
            power_state=telemetry.power_state,
        )

    def predict(self, telemetry: PmuTelemetry) -> PdnMode:
        """Algorithm 1: return the mode with the higher expected ETEE.

        Ties resolve to IVR-Mode, exactly as in the paper's pseudocode
        (``if IVR_ETEE >= LDO_ETEE return IVR-Mode``).
        """
        ivr_etee = self.estimate_etee(PdnMode.IVR_MODE, telemetry)
        ldo_etee = self.estimate_etee(PdnMode.LDO_MODE, telemetry)
        if ivr_etee >= ldo_etee:
            return PdnMode.IVR_MODE
        return PdnMode.LDO_MODE

    def predict_modes(self, points: Sequence[object]) -> List[PdnMode]:
        """Algorithm 1 over a batch: per point, the mode :meth:`predict` selects.

        ``points`` carry the four Algorithm-1 inputs as ``tdp_w``,
        ``application_ratio``, ``workload_type`` and ``power_state``
        attributes (:class:`~repro.pdn.base.OperatingConditions` or
        :class:`PmuTelemetry`).  Points sharing a workload type and power
        state are looked up together through :meth:`EteeCurveSet.etee_many`;
        ties resolve to IVR-Mode, as in :meth:`predict`.
        """
        import numpy as np  # only batch callers pay for numpy

        workload_types = [point.workload_type for point in points]
        power_states = [point.power_state for point in points]
        tdp_w = np.array([point.tdp_w for point in points], dtype=np.float64)
        application_ratio = np.array(
            [point.application_ratio for point in points], dtype=np.float64
        )
        groups: Dict[Tuple[WorkloadType, PackageCState], List[int]] = {}
        for lane, members in enumerate(zip(workload_types, power_states)):
            groups.setdefault(members, []).append(lane)
        ivr_mode = np.empty(len(workload_types), dtype=bool)
        for lanes in groups.values():
            index = np.array(lanes, dtype=np.intp)
            inputs = (
                tdp_w[index],
                application_ratio[index],
                workload_types[lanes[0]],
                power_states[lanes[0]],
            )
            ivr_etee = self._ivr_curves.etee_many(*inputs)
            ldo_etee = self._ldo_curves.etee_many(*inputs)
            ivr_mode[index] = ivr_etee >= ldo_etee
        return [
            PdnMode.IVR_MODE if pick else PdnMode.LDO_MODE for pick in ivr_mode.tolist()
        ]

    def predicted_gain(self, telemetry: PmuTelemetry) -> float:
        """Expected ETEE advantage of the chosen mode over the other one."""
        ivr_etee = self.estimate_etee(PdnMode.IVR_MODE, telemetry)
        ldo_etee = self.estimate_etee(PdnMode.LDO_MODE, telemetry)
        return abs(ivr_etee - ldo_etee)
