"""The IVR PDN model (Fig. 1a, Eq. 6--9).

The integrated-voltage-regulator PDN regulates in two stages: a single board
``V_IN`` regulator converts the platform supply (7.2--20 V) down to ~1.8 V,
and six on-chip IVRs (one per domain) convert that to each domain's voltage.
It is the state-of-the-art PDN of Intel's 4th/5th/10th-generation Core parts
and the baseline every FlexWatts result is normalised against.

Strengths captured by the model: low chip input current (the chip is fed at
1.8 V) and a low input load-line, so conduction losses stay small at high TDP.
Weaknesses: every watt is converted twice, so light loads pay the two-stage
penalty (Observation 1/3 of the paper).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.pdn.base import (
    OperatingConditions,
    PdnEvaluation,
    PowerDeliveryNetwork,
    peak_concurrent_compute_power_w,
    peak_domain_powers_w,
)
from repro.pdn.common import apply_guardbands, guardband_loss_w
from repro.pdn.losses import LossAccumulator
from repro.power.domains import COMPUTE_DOMAINS, DomainKind
from repro.power.parameters import PdnTechnologyParameters
from repro.util.validation import require_positive
from repro.vr.base import RegulatorOperatingPoint
from repro.vr.efficiency_curves import default_input_vr, default_ivr
from repro.vr.load_line import LoadLine
from repro.pdn.common import ICCMAX_DESIGN_MARGIN, MIN_BOARD_VR_ICCMAX_A


class IvrPdn(PowerDeliveryNetwork):
    """Two-stage integrated-voltage-regulator PDN (Eq. 6--9)."""

    name = "IVR"

    #: Assumed second-stage conversion efficiency used only for Iccmax sizing.
    _SIZING_SECOND_STAGE_EFFICIENCY = 0.85

    def __init__(self, parameters: Optional[PdnTechnologyParameters] = None):
        super().__init__(parameters)
        self._input_load_line = LoadLine(self.parameters.ivr_input_loadline_ohm)

    # ------------------------------------------------------------------ #
    # ETEE model
    # ------------------------------------------------------------------ #
    def evaluate(self, conditions: OperatingConditions) -> PdnEvaluation:
        params = self.parameters
        guardbanded = apply_guardbands(
            conditions.loads,
            tolerance_band_v=params.ivr_tolerance_band_v,
            power_gated_domains=(),  # the IVRs themselves act as power gates
            parameters=params,
        )
        breakdown = LossAccumulator(other_w=guardband_loss_w(guardbanded))

        # Second stage: one IVR per domain (Eq. 6).
        input_rail_power_w = 0.0
        compute_share_w = 0.0
        for kind, item in guardbanded.items():
            if item.gated_power_w <= 0.0:
                continue
            load = item.load
            ivr = default_ivr(
                f"IVR_{kind.value}",
                iccmax_a=max(5.0, 2.0 * item.gated_power_w / load.voltage_v),
            )
            point = RegulatorOperatingPoint(
                input_voltage_v=params.ivr_input_voltage_v,
                output_voltage_v=load.voltage_v,
                output_current_a=item.gated_power_w / load.voltage_v,
            )
            domain_input_w = ivr.input_power_w(point)
            breakdown.on_chip_vr_w += domain_input_w - item.gated_power_w
            breakdown.rail_details[f"IVR_{kind.value}"] = domain_input_w
            input_rail_power_w += domain_input_w
            if kind in COMPUTE_DOMAINS:
                compute_share_w += domain_input_w

        # Shared V_IN rail: load-line guardband (Eq. 7/8) and the first-stage
        # regulator (Eq. 9).
        input_voltage_v = params.ivr_input_voltage_v
        ll_result = self._input_load_line.apply(
            input_voltage_v, input_rail_power_w, conditions.application_ratio
        )
        if input_rail_power_w > 0.0:
            compute_fraction = compute_share_w / input_rail_power_w
        else:
            compute_fraction = 0.0
        breakdown.conduction_compute_w += ll_result.conduction_loss_w * compute_fraction
        breakdown.conduction_uncore_w += ll_result.conduction_loss_w * (1.0 - compute_fraction)

        input_vr = default_input_vr(
            "V_IN", iccmax_a=self._input_vr_iccmax_a(conditions.tdp_w)
        )
        input_vr.set_power_state(conditions.board_vr_state)
        if input_rail_power_w > 0.0:
            point = RegulatorOperatingPoint(
                input_voltage_v=params.supply_voltage_v,
                output_voltage_v=ll_result.rail_voltage_v,
                output_current_a=ll_result.rail_current_a,
            )
            supply_power_w = input_vr.input_power_w(point)
            breakdown.off_chip_vr_w += supply_power_w - ll_result.rail_power_w
        else:
            supply_power_w = input_vr.idle_power_w()
            breakdown.other_w += supply_power_w

        return PdnEvaluation(
            pdn_name=self.name,
            nominal_power_w=conditions.nominal_power_w,
            supply_power_w=supply_power_w,
            breakdown=breakdown.freeze(),
            chip_input_current_a=ll_result.rail_current_a,
            rail_voltages_v={"V_IN": ll_result.rail_voltage_v},
        )

    # ------------------------------------------------------------------ #
    # Cost-model inputs
    # ------------------------------------------------------------------ #
    def _input_vr_iccmax_a(self, tdp_w: float) -> float:
        peaks = peak_domain_powers_w(tdp_w)
        concurrent_peak_w = (
            peak_concurrent_compute_power_w(tdp_w)
            + peaks[DomainKind.SA]
            + peaks[DomainKind.IO]
        )
        current_a = (
            concurrent_peak_w
            / self._SIZING_SECOND_STAGE_EFFICIENCY
            / self.parameters.ivr_input_voltage_v
        )
        return max(MIN_BOARD_VR_ICCMAX_A, current_a * ICCMAX_DESIGN_MARGIN)

    def iccmax_requirements_a(self, tdp_w: float) -> Dict[str, float]:
        """Off-chip Iccmax: a single shared ``V_IN`` regulator."""
        require_positive(tdp_w, "tdp_w")
        return {"V_IN": self._input_vr_iccmax_a(tdp_w)}

    def describe(self) -> str:
        return "IVR PDN: board V_IN (1.8 V) + six on-chip integrated regulators"
