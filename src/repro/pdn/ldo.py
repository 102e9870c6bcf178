"""The LDO PDN model (Fig. 1c, Eq. 10--12).

The LDO PDN (AMD-Zen-style) statically splits the domains by their power
range: the SA and IO domains (low, narrow power) get dedicated single-stage
board regulators, while the compute domains (cores, LLC, graphics -- wide
power range) sit behind on-chip LDO regulators fed by a shared board ``V_IN``
regulator.  ``V_IN`` is programmed to the *maximum* voltage any compute domain
needs; the domain that needs that voltage runs its LDO in bypass mode, and
lower-voltage domains regulate linearly (with efficiency ~Vout/Vin, Eq. 10).

Strengths captured by the model: single effective conversion stage for light
loads and CPU workloads where all compute domains share one voltage.
Weaknesses: graphics workloads force a large voltage gap between the graphics
and core domains, collapsing the core LDO efficiency (Observation 2), and the
chip is fed at a low voltage, so input current and I^2 R losses are high at
high TDP (Observation 1).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

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
)
from repro.pdn.losses import LossAccumulator
from repro.power.domains import COMPUTE_DOMAINS, DomainKind, WorkloadType
from repro.power.parameters import PdnTechnologyParameters
from repro.soc.dvfs import compute_voltage_for_tdp, gfx_voltage_for_tdp
from repro.util.validation import require_positive
from repro.vr.base import RegulatorOperatingPoint
from repro.vr.efficiency_curves import default_input_vr
from repro.vr.ldo import LowDropoutRegulator
from repro.vr.load_line import LoadLine

#: Dedicated board rails of the LDO PDN (domain, rail name).
LDO_UNCORE_RAILS: Tuple[Tuple[DomainKind, str], ...] = (
    (DomainKind.SA, "V_SA"),
    (DomainKind.IO, "V_IO"),
)


class LdoPdn(PowerDeliveryNetwork):
    """Hybrid board + on-chip-LDO PDN (Eq. 10--12)."""

    name = "LDO"

    def __init__(
        self,
        parameters: Optional[PdnTechnologyParameters] = None,
        input_loadline_scale: float = 1.0,
    ):
        super().__init__(parameters)
        self._input_load_line = LoadLine(
            self.parameters.ldo_input_loadline_ohm * input_loadline_scale
        )

    # ------------------------------------------------------------------ #
    # Compute-side (LDO) evaluation, reused by FlexWatts' LDO-Mode
    # ------------------------------------------------------------------ #
    def evaluate_compute_side(
        self,
        conditions: OperatingConditions,
        breakdown: LossAccumulator,
        load_line: Optional[LoadLine] = None,
    ) -> Tuple[float, float, float]:
        """Evaluate the LDO-fed compute domains.

        Returns ``(supply_power_w, chip_input_current_a, rail_voltage_v)`` for
        the shared ``V_IN`` rail and accumulates losses into ``breakdown``.
        """
        params = self.parameters
        load_line = load_line if load_line is not None else self._input_load_line
        guardbanded = apply_guardbands(
            conditions.loads,
            tolerance_band_v=params.ldo_tolerance_band_v,
            power_gated_domains=(),  # the LDOs themselves act as power gates
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
            return 0.0, 0.0, 0.0

        # V_IN is programmed to the maximum voltage any compute domain needs.
        input_voltage_v = max(item.load.voltage_v for item in compute_items.values())

        # Second stage: one LDO per compute domain (Eq. 10/11).
        input_rail_power_w = 0.0
        for kind, item in compute_items.items():
            ldo = LowDropoutRegulator(
                name=f"LDO_{kind.value}",
                current_efficiency=params.ldo_current_efficiency,
            )
            point = RegulatorOperatingPoint(
                input_voltage_v=input_voltage_v,
                output_voltage_v=item.load.voltage_v,
                output_current_a=item.gated_power_w / item.load.voltage_v,
            )
            ldo.set_mode(ldo.mode_for(point))
            domain_input_w = ldo.input_power_w(point)
            breakdown.on_chip_vr_w += domain_input_w - item.gated_power_w
            breakdown.rail_details[f"LDO_{kind.value}"] = domain_input_w
            input_rail_power_w += domain_input_w

        # Shared V_IN rail: load-line (Eq. 7/8) and the board regulator.
        ll_result = load_line.apply(
            input_voltage_v, input_rail_power_w, conditions.application_ratio
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
    # Uncore (SA/IO) board rails, shared with I+MBVR and FlexWatts
    # ------------------------------------------------------------------ #
    def evaluate_uncore_rails(
        self, conditions: OperatingConditions, breakdown: LossAccumulator
    ) -> Tuple[float, float, Dict[str, float]]:
        """Evaluate the dedicated SA and IO board rails.

        Returns ``(supply_power_w, chip_input_current_a, rail_voltages)`` and
        accumulates losses into ``breakdown``.
        """
        params = self.parameters
        guardbanded = apply_guardbands(
            conditions.loads,
            tolerance_band_v=params.ldo_tolerance_band_v,
            power_gated_domains=(DomainKind.SA, DomainKind.IO),
            parameters=params,
        )
        breakdown.other_w += sum(
            guardbanded[kind].guardband_loss_w for kind, _ in LDO_UNCORE_RAILS
        )
        peak_powers = peak_domain_powers_w(conditions.tdp_w)
        supply_power_w = 0.0
        current_a = 0.0
        rail_voltages: Dict[str, float] = {}
        for kind, rail_name in LDO_UNCORE_RAILS:
            rail_power_w = group_power_w(guardbanded, (kind,))
            rail_voltage_v = group_voltage_v(conditions, (kind,))
            rail = evaluate_board_rail(
                name=rail_name,
                rail_power_w=rail_power_w,
                rail_voltage_v=rail_voltage_v,
                load_line=LoadLine(params.uncore_loadline_ohm[kind]),
                conditions=conditions,
                parameters=params,
                sizing_peak_current_a=peak_powers[kind] / rail_voltage_v,
            )
            supply_power_w += rail.supply_power_w
            current_a += rail.rail_current_a
            rail_voltages[rail_name] = rail.rail_voltage_v
            breakdown.off_chip_vr_w += rail.off_chip_vr_loss_w
            breakdown.conduction_uncore_w += rail.conduction_loss_w
            breakdown.other_w += rail.idle_quiescent_w
            breakdown.rail_details[rail_name] = rail.supply_power_w
        return supply_power_w, current_a, rail_voltages

    # ------------------------------------------------------------------ #
    # Full PDN evaluation (Eq. 12)
    # ------------------------------------------------------------------ #
    def evaluate(self, conditions: OperatingConditions) -> PdnEvaluation:
        breakdown = LossAccumulator()
        compute_supply_w, compute_current_a, input_rail_v = self.evaluate_compute_side(
            conditions, breakdown
        )
        uncore_supply_w, uncore_current_a, rail_voltages = self.evaluate_uncore_rails(
            conditions, breakdown
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
        peaks = peak_domain_powers_w(tdp_w)
        # The two worst-case scenarios cannot co-occur: a CPU-bound power
        # virus (cores + LLC at the core voltage, graphics gated) and a
        # graphics-bound power virus (graphics + LLC at the graphics voltage,
        # cores at their secondary allocation).  The shared V_IN regulator is
        # sized for whichever draws more current.
        core_voltage_v = compute_voltage_for_tdp(tdp_w)
        gfx_voltage_v = gfx_voltage_for_tdp(tdp_w, WorkloadType.GRAPHICS)
        cpu_scenario_w = peaks[DomainKind.CORE0] + peaks[DomainKind.CORE1] + peaks[DomainKind.LLC]
        gfx_scenario_w = peaks[DomainKind.GFX] + peaks[DomainKind.LLC] + 0.3 * (
            peaks[DomainKind.CORE0] + peaks[DomainKind.CORE1]
        )
        current_a = max(
            cpu_scenario_w / core_voltage_v,
            gfx_scenario_w / max(gfx_voltage_v, core_voltage_v),
        )
        return max(MIN_BOARD_VR_ICCMAX_A, current_a * ICCMAX_DESIGN_MARGIN)

    def iccmax_requirements_a(self, tdp_w: float) -> Dict[str, float]:
        """Off-chip Iccmax: shared V_IN plus dedicated SA and IO regulators."""
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
        return (
            "LDO PDN: board V_IN + on-chip LDOs for the compute domains, "
            "dedicated board regulators for SA/IO"
        )
