"""Package power states (C-states) and their load profiles.

Modern client processors spend most of their time, for light workloads, in
package C-states: the compute domains are clock- or power-gated, the system
agent keeps the display and memory alive, and the board regulators drop into
their light-load power states.  The paper evaluates the PDNs in:

* ``C0_MIN`` -- active, but with the compute domains at their lowest frequency
  (the state in which a video-playback workload prepares each frame),
* ``C2`` / ``C3`` -- compute domains idle, the display controller fetching
  frame data from memory,
* ``C6`` / ``C7`` / ``C8`` -- progressively deeper idle states; in C8 only the
  display controller's local buffer is active and memory is in self-refresh.

The per-state nominal powers below follow the video-playback example of
Sec. 5 (C0_MIN = 2.5 W, C2 = 1.2 W, C8 = 0.13 W) with interpolated values for
the intermediate states, and are the same at every TDP (Sec. 7.1: battery-life
workloads have nearly the same average power regardless of TDP).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.power.domains import DomainKind, DomainLoad, DEFAULT_DOMAINS
from repro.util.validation import require_fraction, require_non_negative
from repro.vr.switching import VRPowerState


class PackageCState(enum.Enum):
    """Package power states modelled by PDNspot."""

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    C0 = "C0"
    C0_MIN = "C0_MIN"
    C2 = "C2"
    C3 = "C3"
    C6 = "C6"
    C7 = "C7"
    C8 = "C8"

    @property
    def is_active(self) -> bool:
        """Whether the compute domains are executing instructions."""
        return self in (PackageCState.C0, PackageCState.C0_MIN)

    @property
    def is_idle(self) -> bool:
        """Whether this is a package idle state (C2 and deeper)."""
        return not self.is_active


@dataclass(frozen=True)
class PowerStateProfile:
    """Per-domain nominal power and PDN behaviour of one package C-state.

    Attributes
    ----------
    state:
        Which package C-state this profile describes.
    domain_power_w:
        Nominal power of each domain in this state; domains absent from the
        mapping are power-gated.
    compute_voltage_v:
        Supply voltage of the compute domains while in this state (their
        minimum functional voltage when active, irrelevant when gated).
    board_vr_state:
        Power state the board regulators drop into while the package is in
        this C-state.
    application_ratio:
        Effective application ratio used for load-line guardbanding in this
        state (idle states have a low but non-zero AR because the guardband
        must still cover the wake-up current).
    """

    state: PackageCState
    domain_power_w: Dict[DomainKind, float]
    compute_voltage_v: float
    board_vr_state: VRPowerState
    application_ratio: float

    def __post_init__(self) -> None:
        for kind, power in self.domain_power_w.items():
            require_non_negative(power, f"domain_power_w[{kind}]")
        require_fraction(self.application_ratio, "application_ratio")

    @property
    def total_nominal_power_w(self) -> float:
        """Sum of the nominal power of all powered domains."""
        return sum(self.domain_power_w.values())

    def loads(self) -> List[DomainLoad]:
        """Build the six :class:`DomainLoad` objects for this power state."""
        loads: List[DomainLoad] = []
        for kind in DomainKind:
            domain = DEFAULT_DOMAINS[kind]
            power_w = self.domain_power_w.get(kind, 0.0)
            if kind in (DomainKind.SA, DomainKind.IO):
                voltage = domain.fixed_voltage_v
            else:
                voltage = self.compute_voltage_v
            loads.append(
                DomainLoad(
                    kind=kind,
                    nominal_power_w=power_w,
                    voltage_v=voltage,
                    leakage_fraction=domain.leakage_fraction,
                    active=power_w > 0.0,
                )
            )
        return loads


#: Default profiles for each package C-state, shared across TDPs.
POWER_STATE_PROFILES: Dict[PackageCState, PowerStateProfile] = {
    PackageCState.C0_MIN: PowerStateProfile(
        state=PackageCState.C0_MIN,
        domain_power_w={
            DomainKind.CORE0: 0.30,
            DomainKind.CORE1: 0.20,
            DomainKind.LLC: 0.30,
            DomainKind.GFX: 0.40,
            DomainKind.SA: 0.85,
            DomainKind.IO: 0.45,
        },
        compute_voltage_v=0.60,
        board_vr_state=VRPowerState.PS0,
        application_ratio=0.30,
    ),
    PackageCState.C2: PowerStateProfile(
        state=PackageCState.C2,
        domain_power_w={DomainKind.SA: 0.80, DomainKind.IO: 0.40},
        compute_voltage_v=0.60,
        board_vr_state=VRPowerState.PS1,
        application_ratio=0.25,
    ),
    PackageCState.C3: PowerStateProfile(
        state=PackageCState.C3,
        domain_power_w={DomainKind.SA: 0.60, DomainKind.IO: 0.30},
        compute_voltage_v=0.60,
        board_vr_state=VRPowerState.PS1,
        application_ratio=0.25,
    ),
    PackageCState.C6: PowerStateProfile(
        state=PackageCState.C6,
        domain_power_w={DomainKind.SA: 0.30, DomainKind.IO: 0.15},
        compute_voltage_v=0.60,
        board_vr_state=VRPowerState.PS3,
        application_ratio=0.20,
    ),
    PackageCState.C7: PowerStateProfile(
        state=PackageCState.C7,
        domain_power_w={DomainKind.SA: 0.17, DomainKind.IO: 0.08},
        compute_voltage_v=0.60,
        board_vr_state=VRPowerState.PS3,
        application_ratio=0.20,
    ),
    PackageCState.C8: PowerStateProfile(
        state=PackageCState.C8,
        domain_power_w={DomainKind.SA: 0.09, DomainKind.IO: 0.04},
        compute_voltage_v=0.60,
        board_vr_state=VRPowerState.PS4,
        application_ratio=0.20,
    ),
}

#: Package C-states evaluated by the battery-life / validation experiments
#: (Fig. 4(j) of the paper), in order of increasing depth.
BATTERY_LIFE_STATES = (
    PackageCState.C0_MIN,
    PackageCState.C2,
    PackageCState.C3,
    PackageCState.C6,
    PackageCState.C7,
    PackageCState.C8,
)
