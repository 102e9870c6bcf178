"""The FlexWatts hybrid adaptive PDN model.

FlexWatts (Sec. 6) attaches hybrid IVR/LDO regulators -- behind one shared
board ``V_IN`` regulator -- to the wide-power compute domains (cores, LLC,
graphics), and dedicated single-stage board regulators to the narrow-power SA
and IO domains.  At runtime it switches the hybrid regulators between
IVR-Mode and LDO-Mode using the Algorithm-1 predictor, paying the ~94 us
mode-switch flow each time the selected mode changes.

Electrically:

* **IVR-Mode** is the I+MBVR topology (``V_IN`` at ~1.8 V, buck IVRs), with a
  slightly higher input load-line because the routing is shared with the LDO
  personality (``flexwatts_loadline_scale`` in Table-2 parameters).
* **LDO-Mode** is the LDO topology (``V_IN`` at the maximum compute voltage,
  linear regulators/bypass), with the same shared-routing load-line penalty.

This model therefore *reuses* the compute-side evaluations of
:class:`~repro.pdn.imbvr.IMbvrPdn` and :class:`~repro.pdn.ldo.LdoPdn`, which
guarantees the "FlexWatts tracks the better of IVR and LDO minus a small
load-line penalty" behaviour the paper reports, rather than re-deriving it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.hybrid_vr import PdnMode
from repro.core.runtime_estimator import RuntimeInputEstimator
from repro.pdn.base import OperatingConditions, PdnEvaluation, PowerDeliveryNetwork
from repro.pdn.imbvr import IMbvrPdn
from repro.pdn.ldo import LdoPdn
from repro.power.parameters import PdnTechnologyParameters
from repro.soc.pmu import PmuTelemetry
from repro.util.validation import require_positive

if TYPE_CHECKING:  # built on first use: only simulations switch modes
    from repro.core.mode_switching import ModeSwitchController


class FlexWattsPdn(PowerDeliveryNetwork):
    """Power- and workload-aware hybrid adaptive PDN (the paper's proposal)."""

    name = "FlexWatts"

    def __init__(
        self,
        parameters: Optional[PdnTechnologyParameters] = None,
        predictor=None,
        switch_controller: Optional[ModeSwitchController] = None,
    ):
        super().__init__(parameters)
        scale = self.parameters.flexwatts_loadline_scale
        self._ivr_mode_model = IMbvrPdn(self.parameters, input_loadline_scale=scale)
        self._ldo_mode_model = LdoPdn(self.parameters, input_loadline_scale=scale)
        self._predictor = predictor
        self._switch_controller = switch_controller

    # ------------------------------------------------------------------ #
    # Mode handling
    # ------------------------------------------------------------------ #
    @property
    def switch_controller(self) -> ModeSwitchController:
        """The mode-switch controller tracking the hybrid PDN's current mode."""
        if self._switch_controller is None:
            from repro.core.mode_switching import ModeSwitchController

            self._switch_controller = ModeSwitchController()
        return self._switch_controller

    @property
    def predictor(self):
        """The Algorithm-1 predictor (built lazily on first use)."""
        if self._predictor is None:
            from repro.core.calibration import build_default_predictor

            self._predictor = build_default_predictor(self)
        return self._predictor

    def predict_mode(self, conditions: OperatingConditions) -> PdnMode:
        """Mode Algorithm 1 selects for the given operating point."""
        telemetry = RuntimeInputEstimator.estimate_from_conditions(conditions)
        return self.predict_mode_from_telemetry(telemetry)

    def predict_modes(
        self, conditions: Sequence[OperatingConditions]
    ) -> List[PdnMode]:
        """Modes Algorithm 1 selects for a batch of operating points.

        Point for point equal to :meth:`predict_mode`, batched through
        :meth:`~repro.core.mode_predictor.ModePredictor.predict_modes`.  A
        predictor with no batch path -- one that only answers
        ``predict(telemetry)`` -- is asked point by point.
        """
        predictor = self.predictor
        if not hasattr(predictor, "predict_modes"):
            return [self.predict_mode(point) for point in conditions]
        return predictor.predict_modes(conditions)

    def predict_mode_from_telemetry(self, telemetry: PmuTelemetry) -> PdnMode:
        """Mode Algorithm 1 selects for the given PMU telemetry."""
        return self.predictor.predict(telemetry)

    def oracle_mode(self, conditions: OperatingConditions) -> PdnMode:
        """Mode an oracle (evaluating both modes exactly) would select.

        Used to quantify how close the table-driven predictor gets to the
        best achievable choice.
        """
        ivr_result = self.evaluate_in_mode(conditions, PdnMode.IVR_MODE)
        ldo_result = self.evaluate_in_mode(conditions, PdnMode.LDO_MODE)
        if ivr_result.supply_power_w <= ldo_result.supply_power_w:
            return PdnMode.IVR_MODE
        return PdnMode.LDO_MODE

    # ------------------------------------------------------------------ #
    # ETEE model
    # ------------------------------------------------------------------ #
    def evaluate_in_mode(
        self, conditions: OperatingConditions, mode: PdnMode
    ) -> PdnEvaluation:
        """Evaluate the hybrid PDN with the mode forced to ``mode``."""
        side = self._ivr_mode_model if mode is PdnMode.IVR_MODE else self._ldo_mode_model
        result = side.evaluate(conditions)
        return dataclasses.replace(result, pdn_name=f"{self.name}[{mode.value}]")

    def evaluate(
        self, conditions: OperatingConditions, mode: Optional[PdnMode] = None
    ) -> PdnEvaluation:
        """Evaluate FlexWatts at ``conditions``.

        When ``mode`` is omitted the Algorithm-1 predictor chooses it, exactly
        as the PMU firmware would at runtime.
        """
        selected = mode if mode is not None else self.predict_mode(conditions)
        result = self.evaluate_in_mode(conditions, selected)
        return dataclasses.replace(result, pdn_name=self.name)

    # ------------------------------------------------------------------ #
    # Cost-model inputs
    # ------------------------------------------------------------------ #
    def iccmax_requirements_a(self, tdp_w: float) -> Dict[str, float]:
        """Off-chip Iccmax: shared V_IN plus the SA and IO regulators.

        The shared ``V_IN`` regulator is sized for whichever mode needs more
        current at this TDP.  High-power (high-current) workloads run in
        IVR-Mode, so at high TDPs the requirement matches the IVR PDN's -- the
        property that keeps FlexWatts' BOM/area comparable to IVR (Sec. 7.1).
        """
        require_positive(tdp_w, "tdp_w")
        ivr_mode = self._ivr_mode_model.iccmax_requirements_a(tdp_w)
        ldo_mode = self._ldo_mode_model.iccmax_requirements_a(tdp_w)
        # In LDO-Mode the hybrid PDN only ever carries light-load currents:
        # heavy workloads trigger a switch to IVR-Mode before the current
        # ramps (the predictor evaluates every 10 ms and Turbo requests are
        # themselves PMU-mediated).  The V_IN sizing therefore follows the
        # IVR-Mode requirement, while SA/IO follow the dedicated-rail sizing.
        return {
            "V_IN": ivr_mode["V_IN"],
            "V_SA": ldo_mode["V_SA"],
            "V_IO": ldo_mode["V_IO"],
        }

    def describe(self) -> str:
        return (
            "FlexWatts PDN: hybrid IVR/LDO regulators for the compute domains "
            "behind a shared V_IN, dedicated board rails for SA/IO, with "
            "Algorithm-1 mode prediction"
        )
