"""FlexWatts' voltage-noise-free mode-switching flow and its overheads.

Switching the hybrid PDN between IVR-Mode and LDO-Mode changes the voltage of
the shared ``V_IN`` rail and reconfigures every hybrid regulator; doing that
while the compute domains are executing would inject voltage noise.  FlexWatts
therefore reuses the package-C6 firmware flow (Sec. 6):

1. the PMU places the package into the C6 idle state (contexts saved to an
   always-on SRAM, compute clocks and voltages gated) -- ~45 us,
2. the PMU reprograms ``V_IN`` and the hybrid regulators for the new mode --
   bounded by the off-chip regulator slew (50 mV/us) and the <=2 us on-chip
   regulator settling time, ~19 us for the 1.8 V <-> ~0.85 V transition, and
3. the PMU exits C6 and execution resumes in the new mode -- ~30 us,

for a total of ~94 us, which the paper compares against the up-to-500 us
latency of a conventional P-state (DVFS) transition.

The area overhead of adding the LDO personality to the existing IVRs is about
0.041 mm^2 at 14 nm -- 0.04 % / 0.03 % of a dual-/quad-core client die.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.hybrid_vr import PdnMode
from repro.power.power_states import PackageCState
from repro.soc.pmu import (
    PACKAGE_C6_ENTRY_LATENCY_S,
    PACKAGE_C6_EXIT_LATENCY_S,
    PowerManagementUnit,
)
from repro.util.validation import require_non_negative, require_positive

#: Off-chip regulator slew rate used to bound the V_IN adjustment (50 mV/us).
OFF_CHIP_SLEW_RATE_V_PER_S = 50e-3 / 1e-6

#: On-chip (hybrid) regulator reconfiguration latency (<= 2 us).
ON_CHIP_ADJUST_LATENCY_S = 2e-6

#: V_IN level in IVR-Mode.
IVR_MODE_INPUT_VOLTAGE_V = 1.8

#: Representative V_IN level in LDO-Mode (the maximum compute-domain voltage).
LDO_MODE_INPUT_VOLTAGE_V = 0.85


@dataclass(frozen=True)
class ModeSwitchOverheads:
    """Latency and area overheads of the FlexWatts mode-switch flow."""

    c6_entry_s: float = PACKAGE_C6_ENTRY_LATENCY_S
    vr_adjust_s: float = 19e-6
    c6_exit_s: float = PACKAGE_C6_EXIT_LATENCY_S
    #: Die area added by the LDO personality of the hybrid regulators (mm^2).
    area_overhead_mm2: float = 0.041
    #: Fraction of a dual-core client die the overhead represents.
    dual_core_die_fraction: float = 0.0004
    #: Fraction of a quad-core client die the overhead represents.
    quad_core_die_fraction: float = 0.0003

    def __post_init__(self) -> None:
        require_non_negative(self.c6_entry_s, "c6_entry_s")
        require_non_negative(self.vr_adjust_s, "vr_adjust_s")
        require_non_negative(self.c6_exit_s, "c6_exit_s")
        require_non_negative(self.area_overhead_mm2, "area_overhead_mm2")

    @property
    def total_latency_s(self) -> float:
        """End-to-end mode-switch latency (~94 us with the default values)."""
        return self.c6_entry_s + self.vr_adjust_s + self.c6_exit_s

    def drive_flow(self, pmu: PowerManagementUnit) -> None:
        """Drive one switch's package-C6 flow through ``pmu``.

        The PMU enters C6, its clock advances by the regulator adjustment,
        and it resumes in its previous active state (C0 from any other).
        """
        previous_state = pmu.power_state
        pmu.enter_power_state(PackageCState.C6)
        pmu.advance_time(self.vr_adjust_s)
        resume_state = (
            previous_state
            if previous_state in (PackageCState.C0, PackageCState.C0_MIN)
            else PackageCState.C0
        )
        pmu.enter_power_state(resume_state)

    @classmethod
    def from_voltage_swing(
        cls,
        from_voltage_v: float = IVR_MODE_INPUT_VOLTAGE_V,
        to_voltage_v: float = LDO_MODE_INPUT_VOLTAGE_V,
    ) -> "ModeSwitchOverheads":
        """Derive the regulator-adjustment latency from the V_IN voltage swing."""
        require_positive(from_voltage_v, "from_voltage_v")
        require_positive(to_voltage_v, "to_voltage_v")
        swing_v = abs(from_voltage_v - to_voltage_v)
        adjust_s = max(ON_CHIP_ADJUST_LATENCY_S, swing_v / OFF_CHIP_SLEW_RATE_V_PER_S)
        return cls(vr_adjust_s=adjust_s)


class ModeSwitchController:
    """Tracks the hybrid PDN's mode and accounts for switching overheads.

    Parameters
    ----------
    initial_mode:
        Mode the hybrid PDN boots in (IVR-Mode by default, matching the
        baseline design it extends).
    overheads:
        Latency/area overhead description; defaults to the paper's figures.
    min_residency_s:
        Minimum time the PDN must stay in a mode before switching again.
        FlexWatts evaluates its predictor every ~10 ms, so mode changes can
        never be more frequent than that.
    """

    def __init__(
        self,
        initial_mode: PdnMode = PdnMode.IVR_MODE,
        overheads: Optional[ModeSwitchOverheads] = None,
        min_residency_s: float = 10e-3,
    ):
        require_non_negative(min_residency_s, "min_residency_s")
        self._mode = initial_mode
        self._overheads = overheads if overheads is not None else ModeSwitchOverheads()
        self._min_residency_s = min_residency_s
        self._switch_count = 0
        self._total_switch_time_s = 0.0
        self._time_since_switch_s = float("inf")

    @property
    def mode(self) -> PdnMode:
        """The hybrid PDN's current mode."""
        return self._mode

    @property
    def overheads(self) -> ModeSwitchOverheads:
        """The overhead description used by this controller."""
        return self._overheads

    @property
    def switch_count(self) -> int:
        """Number of mode switches performed so far."""
        return self._switch_count

    @property
    def total_switch_time_s(self) -> float:
        """Total time spent inside mode-switch flows."""
        return self._total_switch_time_s

    def advance_time(self, interval_s: float) -> None:
        """Advance the controller's residency clock by ``interval_s``."""
        require_non_negative(interval_s, "interval_s")
        self._time_since_switch_s += interval_s

    def can_switch(self) -> bool:
        """Whether the minimum residency since the last switch has elapsed."""
        return self._time_since_switch_s >= self._min_residency_s

    def switch_to(self, mode: PdnMode, pmu: Optional[PowerManagementUnit] = None) -> float:
        """Switch the hybrid PDN to ``mode``; returns the latency paid (seconds).

        If a PMU is supplied the package-C6 entry/exit flow is actually driven
        through it (and the PMU's clock advances); otherwise only the latency
        accounting is performed.  Requesting the current mode costs nothing.
        """
        if mode is self._mode:
            return 0.0
        if not self.can_switch():
            return 0.0
        if pmu is not None:
            self._overheads.drive_flow(pmu)
        latency_s = self._overheads.total_latency_s
        self._mode = mode
        self._switch_count += 1
        self._total_switch_time_s += latency_s
        self._time_since_switch_s = 0.0
        return latency_s

    def energy_overhead_j(self, package_power_w: float) -> float:
        """Energy burned during one mode switch at ``package_power_w``."""
        require_non_negative(package_power_w, "package_power_w")
        return package_power_w * self._overheads.total_latency_s
