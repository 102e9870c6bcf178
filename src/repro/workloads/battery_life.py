"""Battery-life workloads and their power-state residencies.

Sec. 5 and Sec. 7.1 of the paper describe battery-life workloads as
residency-weighted mixtures of package power states:

* **video playback** -- 10 % in C0 at minimum frequency (preparing a frame),
  a short C2 window while the display controller fetches the frame from
  memory, and ~85 % in the deep C8 state while the panel self-refreshes;
* **video conferencing** -- 20 % C0_MIN residency;
* **web browsing** -- 30 % C0_MIN residency;
* **light gaming** -- 40 % C0_MIN residency;

with the remaining idle time split between C2 and C8.  The average power of
such a workload is the residency-weighted sum of the per-state power divided
by the per-state ETEE (the equation in Sec. 5), which is what
:meth:`BatteryLifeWorkload.average_power_w` computes for a given PDN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.pdn.base import (
    OperatingConditions,
    PdnEvaluation,
    PowerDeliveryNetwork,
    evaluate_pdn,
)
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError
from repro.util.validation import require_fraction
from repro.workloads.base import WorkloadPhase, WorkloadTrace


@dataclass(frozen=True)
class BatteryLifeWorkload:
    """A battery-life workload expressed as package power-state residencies."""

    name: str
    residencies: Dict[PackageCState, float]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a battery-life workload needs a name")
        total = 0.0
        for state, residency in self.residencies.items():
            require_fraction(residency, f"residency[{state}]")
            total += residency
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(
                f"{self.name}: residencies sum to {total:.4f}, expected 1.0"
            )

    def trace(self) -> WorkloadTrace:
        """The workload as a :class:`WorkloadTrace` of idle/active phases."""
        phases = tuple(
            WorkloadPhase(power_state=state, residency=residency)
            for state, residency in self.residencies.items()
            if residency > 0.0
        )
        return WorkloadTrace(name=self.name, phases=phases)

    def average_power_w(
        self,
        pdn: PowerDeliveryNetwork,
        tdp_w: float = 18.0,
        evaluate: Optional[
            Callable[[PowerDeliveryNetwork, OperatingConditions], PdnEvaluation]
        ] = None,
    ) -> float:
        """Residency-weighted average supply power of this workload on ``pdn``.

        Implements the Sec. 5 equation
        ``sum_s P_s * R_s / ETEE_s`` by evaluating the PDN in each power state.
        The optional ``evaluate`` hook lets :class:`repro.analysis.pdnspot.PdnSpot`
        serve the shared power states of all four workloads from its cache.
        """
        if evaluate is None:
            evaluate = evaluate_pdn
        average = 0.0
        for state, residency in self.residencies.items():
            if residency == 0.0:
                continue
            conditions = OperatingConditions.for_power_state(tdp_w, state)
            average += evaluate(pdn, conditions).supply_power_w * residency
        return average


#: The four battery-life workloads of Fig. 8(c), with the paper's C0_MIN
#: residencies (10/20/30/40 %) and the remaining time split between C2 and C8.
BATTERY_LIFE_WORKLOADS: Tuple[BatteryLifeWorkload, ...] = (
    BatteryLifeWorkload(
        name="video_playback",
        residencies={
            PackageCState.C0_MIN: 0.10,
            PackageCState.C2: 0.05,
            PackageCState.C8: 0.85,
        },
    ),
    BatteryLifeWorkload(
        name="video_conferencing",
        residencies={
            PackageCState.C0_MIN: 0.20,
            PackageCState.C2: 0.08,
            PackageCState.C8: 0.72,
        },
    ),
    BatteryLifeWorkload(
        name="web_browsing",
        residencies={
            PackageCState.C0_MIN: 0.30,
            PackageCState.C2: 0.10,
            PackageCState.C8: 0.60,
        },
    ),
    BatteryLifeWorkload(
        name="light_gaming",
        residencies={
            PackageCState.C0_MIN: 0.40,
            PackageCState.C2: 0.10,
            PackageCState.C8: 0.50,
        },
    ),
)
