"""The I+MBVR PDN model (Sec. 7: the Intel Skylake-X-style hybrid).

I+MBVR combines the IVR and MBVR topologies: like the LDO PDN it gives the SA
and IO domains dedicated single-stage board regulators (removing their
two-stage conversion penalty), and like the IVR PDN it feeds the compute
domains through on-chip IVRs behind a shared ~1.8 V ``V_IN`` rail.

The paper uses I+MBVR as an additional comparison point: it improves on IVR by
up to ~6 % (the SA/IO improvement) but, unlike FlexWatts, it still pays the
two-stage conversion penalty for the compute domains at low TDP.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.pdn.base import (
    OperatingConditions,
    PdnEvaluation,
    PowerDeliveryNetwork,
    peak_concurrent_compute_power_w,
    peak_domain_powers_w,
)
from repro.pdn.common import (
    ICCMAX_DESIGN_MARGIN,
    MIN_BOARD_VR_ICCMAX_A,
    apply_guardbands,
)
from repro.pdn.ldo import LdoPdn
from repro.pdn.losses import LossAccumulator
from repro.power.domains import COMPUTE_DOMAINS, DomainKind
from repro.power.parameters import PdnTechnologyParameters
from repro.util.validation import require_positive
from repro.vr.base import RegulatorOperatingPoint
from repro.vr.efficiency_curves import default_input_vr, default_ivr
from repro.vr.load_line import LoadLine


class IMbvrPdn(PowerDeliveryNetwork):
    """Hybrid IVR + MBVR PDN: IVRs for compute domains, board rails for SA/IO."""

    name = "I+MBVR"

    #: Assumed second-stage conversion efficiency used only for Iccmax sizing.
    _SIZING_SECOND_STAGE_EFFICIENCY = 0.85

    def __init__(
        self,
        parameters: Optional[PdnTechnologyParameters] = None,
        input_loadline_scale: float = 1.0,
    ):
        super().__init__(parameters)
        self._input_load_line = LoadLine(
            self.parameters.ivr_input_loadline_ohm * input_loadline_scale
        )
        # The SA/IO side is identical to the LDO PDN's; reuse its implementation.
        self._uncore_model = LdoPdn(self.parameters)

    # ------------------------------------------------------------------ #
    # Compute-side (IVR) evaluation, reused by FlexWatts' IVR-Mode
    # ------------------------------------------------------------------ #
    def evaluate_compute_side(
        self,
        conditions: OperatingConditions,
        breakdown: LossAccumulator,
        load_line: Optional[LoadLine] = None,
    ) -> Tuple[float, float, float]:
        """Evaluate the IVR-fed compute domains.

        Returns ``(supply_power_w, chip_input_current_a, rail_voltage_v)`` for
        the shared ``V_IN`` rail and accumulates losses into ``breakdown``.
        """
        params = self.parameters
        load_line = load_line if load_line is not None else self._input_load_line
        guardbanded = apply_guardbands(
            conditions.loads,
            tolerance_band_v=params.ivr_tolerance_band_v,
            power_gated_domains=(),
            parameters=params,
        )
        compute_items = {
            kind: guardbanded[kind]
            for kind in COMPUTE_DOMAINS
            if guardbanded[kind].gated_power_w > 0.0
        }
        breakdown.other_w += sum(
            guardbanded[kind].guardband_loss_w for kind in COMPUTE_DOMAINS
        )
        if not compute_items:
            # Even with every compute domain power-gated, IVR-Mode keeps the
            # shared V_IN rail alive at ~1.8 V, so its regulator's quiescent
            # power is still drawn (this is part of why the IVR-style PDNs are
            # less efficient in idle states -- Observation 3).
            idle_vr = default_input_vr(
                "V_IN", iccmax_a=self._input_vr_iccmax_a(conditions.tdp_w)
            )
            idle_vr.set_power_state(conditions.board_vr_state)
            idle_power_w = idle_vr.idle_power_w()
            breakdown.other_w += idle_power_w
            return idle_power_w, 0.0, 0.0

        input_rail_power_w = 0.0
        for kind, item in compute_items.items():
            ivr = default_ivr(
                f"IVR_{kind.value}",
                iccmax_a=max(5.0, 2.0 * item.gated_power_w / item.load.voltage_v),
            )
            point = RegulatorOperatingPoint(
                input_voltage_v=params.ivr_input_voltage_v,
                output_voltage_v=item.load.voltage_v,
                output_current_a=item.gated_power_w / item.load.voltage_v,
            )
            domain_input_w = ivr.input_power_w(point)
            breakdown.on_chip_vr_w += domain_input_w - item.gated_power_w
            breakdown.rail_details[f"IVR_{kind.value}"] = domain_input_w
            input_rail_power_w += domain_input_w

        ll_result = load_line.apply(
            params.ivr_input_voltage_v, input_rail_power_w, conditions.application_ratio
        )
        breakdown.conduction_compute_w += ll_result.conduction_loss_w
        input_vr = default_input_vr(
            "V_IN", iccmax_a=self._input_vr_iccmax_a(conditions.tdp_w)
        )
        input_vr.set_power_state(conditions.board_vr_state)
        point = RegulatorOperatingPoint(
            input_voltage_v=params.supply_voltage_v,
            output_voltage_v=ll_result.rail_voltage_v,
            output_current_a=ll_result.rail_current_a,
        )
        supply_power_w = input_vr.input_power_w(point)
        breakdown.off_chip_vr_w += supply_power_w - ll_result.rail_power_w
        return supply_power_w, ll_result.rail_current_a, ll_result.rail_voltage_v

    # ------------------------------------------------------------------ #
    # Full PDN evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, conditions: OperatingConditions) -> PdnEvaluation:
        breakdown = LossAccumulator()
        compute_supply_w, compute_current_a, input_rail_v = self.evaluate_compute_side(
            conditions, breakdown
        )
        uncore_supply_w, uncore_current_a, rail_voltages = (
            self._uncore_model.evaluate_uncore_rails(conditions, breakdown)
        )
        if input_rail_v > 0.0:
            rail_voltages["V_IN"] = input_rail_v
        return PdnEvaluation(
            pdn_name=self.name,
            nominal_power_w=conditions.nominal_power_w,
            supply_power_w=compute_supply_w + uncore_supply_w,
            breakdown=breakdown.freeze(),
            chip_input_current_a=compute_current_a + uncore_current_a,
            rail_voltages_v=rail_voltages,
        )

    # ------------------------------------------------------------------ #
    # Cost-model inputs
    # ------------------------------------------------------------------ #
    def _input_vr_iccmax_a(self, tdp_w: float) -> float:
        compute_peak_w = peak_concurrent_compute_power_w(tdp_w)
        current_a = (
            compute_peak_w
            / self._SIZING_SECOND_STAGE_EFFICIENCY
            / self.parameters.ivr_input_voltage_v
        )
        return max(MIN_BOARD_VR_ICCMAX_A, current_a * ICCMAX_DESIGN_MARGIN)

    def iccmax_requirements_a(self, tdp_w: float) -> Dict[str, float]:
        """Off-chip Iccmax: shared V_IN (compute) plus SA and IO regulators."""
        require_positive(tdp_w, "tdp_w")
        peaks = peak_domain_powers_w(tdp_w)
        return {
            "V_IN": self._input_vr_iccmax_a(tdp_w),
            "V_SA": max(
                MIN_BOARD_VR_ICCMAX_A, peaks[DomainKind.SA] / 0.8 * ICCMAX_DESIGN_MARGIN
            ),
            "V_IO": max(
                MIN_BOARD_VR_ICCMAX_A, peaks[DomainKind.IO] / 1.0 * ICCMAX_DESIGN_MARGIN
            ),
        }

    def describe(self) -> str:
        return "I+MBVR PDN: IVRs for the compute domains, board rails for SA/IO"
