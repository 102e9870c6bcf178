"""The MBVR PDN model (Fig. 1b, Eq. 2--5).

The motherboard-voltage-regulator PDN is the traditional single-stage design:
four board regulators feed the processor domains directly at their operating
voltages (cores+LLC share a rail, graphics, SA and IO each get their own), and
on-chip power gates disconnect idle domains.

Strengths captured by the model: only one conversion stage, so light loads are
handled efficiently (Observation 3).  Weaknesses: the chip is fed at the low
domain voltages, so the input current -- and with it the I^2 R load-line loss
-- is high for computationally intensive workloads at high TDP
(Observation 1), and each rail needs its own physically large regulator
(board area / BOM, Fig. 8d-e).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.pdn.base import (
    OperatingConditions,
    PdnEvaluation,
    PowerDeliveryNetwork,
    peak_domain_powers_w,
)
from repro.pdn.common import (
    ICCMAX_DESIGN_MARGIN,
    MIN_BOARD_VR_ICCMAX_A,
    apply_guardbands,
    evaluate_board_rail,
    group_power_w,
    group_voltage_v,
    guardband_loss_w,
)
from repro.pdn.losses import LossAccumulator
from repro.power.domains import DomainKind
from repro.power.parameters import PdnTechnologyParameters
from repro.soc.dvfs import compute_voltage_for_tdp, gfx_voltage_for_tdp
from repro.power.domains import WorkloadType
from repro.util.validation import require_positive
from repro.vr.load_line import LoadLine

#: Rail topology of the MBVR PDN: rail name -> (domains, is_compute_rail).
MBVR_RAILS: Dict[str, Tuple[Sequence[DomainKind], bool]] = {
    "V_Cores": ((DomainKind.CORE0, DomainKind.CORE1, DomainKind.LLC), True),
    "V_GFX": ((DomainKind.GFX,), True),
    "V_SA": ((DomainKind.SA,), False),
    "V_IO": ((DomainKind.IO,), False),
}


class MbvrPdn(PowerDeliveryNetwork):
    """Single-stage motherboard-voltage-regulator PDN (Eq. 2--5)."""

    name = "MBVR"

    def __init__(self, parameters: Optional[PdnTechnologyParameters] = None):
        super().__init__(parameters)

    def _rail_load_line(self, rail_domains: Sequence[DomainKind]) -> LoadLine:
        """Load-line of a rail: the impedance of its (first) domain in Table 2."""
        return LoadLine(self.parameters.mbvr_loadline_ohm[rail_domains[0]])

    # ------------------------------------------------------------------ #
    # ETEE model
    # ------------------------------------------------------------------ #
    def evaluate(self, conditions: OperatingConditions) -> PdnEvaluation:
        params = self.parameters
        guardbanded = apply_guardbands(
            conditions.loads,
            tolerance_band_v=params.mbvr_tolerance_band_v,
            power_gated_domains=tuple(DomainKind),  # Fig. 1(b): all six domains
            parameters=params,
        )
        breakdown = LossAccumulator(other_w=guardband_loss_w(guardbanded))
        peak_powers = peak_domain_powers_w(conditions.tdp_w)

        supply_power_w = 0.0
        chip_input_current_a = 0.0
        rail_voltages: Dict[str, float] = {}
        for rail_name, (rail_domains, is_compute) in MBVR_RAILS.items():
            rail_power_w = group_power_w(guardbanded, rail_domains)
            rail_voltage_v = group_voltage_v(conditions, rail_domains)
            sizing_current_a = self._rail_sizing_current_a(
                rail_domains, peak_powers, conditions.tdp_w
            )
            rail = evaluate_board_rail(
                name=rail_name,
                rail_power_w=rail_power_w,
                rail_voltage_v=rail_voltage_v,
                load_line=self._rail_load_line(rail_domains),
                conditions=conditions,
                parameters=params,
                sizing_peak_current_a=sizing_current_a,
            )
            supply_power_w += rail.supply_power_w
            chip_input_current_a += rail.rail_current_a
            rail_voltages[rail_name] = rail.rail_voltage_v
            breakdown.off_chip_vr_w += rail.off_chip_vr_loss_w
            breakdown.other_w += rail.idle_quiescent_w
            if is_compute:
                breakdown.conduction_compute_w += rail.conduction_loss_w
            else:
                breakdown.conduction_uncore_w += rail.conduction_loss_w
            breakdown.rail_details[rail_name] = rail.supply_power_w

        return PdnEvaluation(
            pdn_name=self.name,
            nominal_power_w=conditions.nominal_power_w,
            supply_power_w=supply_power_w,
            breakdown=breakdown.freeze(),
            chip_input_current_a=chip_input_current_a,
            rail_voltages_v=rail_voltages,
        )

    # ------------------------------------------------------------------ #
    # Cost-model inputs
    # ------------------------------------------------------------------ #
    def _rail_sizing_current_a(
        self,
        rail_domains: Sequence[DomainKind],
        peak_powers: Dict[DomainKind, float],
        tdp_w: float,
    ) -> float:
        rail_peak_w = sum(peak_powers[kind] for kind in rail_domains)
        if rail_domains[0] in (DomainKind.CORE0, DomainKind.CORE1, DomainKind.LLC):
            rail_voltage_v = compute_voltage_for_tdp(tdp_w)
        elif rail_domains[0] is DomainKind.GFX:
            rail_voltage_v = gfx_voltage_for_tdp(tdp_w, WorkloadType.GRAPHICS)
        elif rail_domains[0] is DomainKind.SA:
            rail_voltage_v = 0.8
        else:
            rail_voltage_v = 1.0
        return rail_peak_w / rail_voltage_v

    def iccmax_requirements_a(self, tdp_w: float) -> Dict[str, float]:
        """Off-chip Iccmax: four per-domain-group board regulators."""
        require_positive(tdp_w, "tdp_w")
        peak_powers = peak_domain_powers_w(tdp_w)
        requirements: Dict[str, float] = {}
        for rail_name, (rail_domains, _) in MBVR_RAILS.items():
            current_a = self._rail_sizing_current_a(rail_domains, peak_powers, tdp_w)
            requirements[rail_name] = max(
                MIN_BOARD_VR_ICCMAX_A, current_a * ICCMAX_DESIGN_MARGIN
            )
        return requirements

    def describe(self) -> str:
        return "MBVR PDN: four one-stage board regulators + on-chip power gates"
