"""Processor domains and their nominal-power models.

The modelled processor (Table 1 of the paper) has six loads:

* two CPU cores (``CORE0``, ``CORE1``) sharing one clock/voltage domain,
* a last-level cache (``LLC``) whose size/frequency scales with the cores,
* the graphics engines (``GFX``),
* the system agent (``SA``: memory controller, display controller, IO fabric),
* the IO domain (``IO``: DDR IO, display IO), which runs at fixed frequency.

Each PDN model consumes a list of :class:`DomainLoad` objects -- one per
domain -- describing the domain's nominal power, nominal voltage, leakage
fraction and whether it is power-gated.  The loads are produced by
:meth:`repro.pdn.base.OperatingConditions.for_active_workload` (a TDP, an
application ratio and a workload type) and
:meth:`repro.pdn.base.OperatingConditions.for_power_state` (a package C-state).

The nominal-power-versus-TDP curves follow the ranges of Table 2:
cores 0.6--30 W, LLC 0.5--4 W, graphics 0.58--29.4 W across the 4--50 W TDP
range, with the SA and IO domains nearly flat across TDPs (Sec. 6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Tuple

from repro.util.errors import ConfigurationError
from repro.util.interpolate import LinearTable1D
from repro.util.validation import require_fraction, require_non_negative, require_positive


class DomainKind(enum.Enum):
    """The six voltage domains of the modelled client processor."""

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    CORE0 = "core0"
    CORE1 = "core1"
    LLC = "llc"
    GFX = "gfx"
    SA = "sa"
    IO = "io"


#: Domains with a wide power-consumption range; FlexWatts attaches its hybrid
#: regulators to these (Sec. 6).
COMPUTE_DOMAINS: Tuple[DomainKind, ...] = (
    DomainKind.CORE0,
    DomainKind.CORE1,
    DomainKind.LLC,
    DomainKind.GFX,
)

#: Domains with a low and narrow power range; FlexWatts (and the LDO and
#: I+MBVR PDNs) place these on dedicated off-chip regulators.
UNCORE_DOMAINS: Tuple[DomainKind, ...] = (DomainKind.SA, DomainKind.IO)


class WorkloadType(enum.Enum):
    """Workload classes distinguished by the models and the mode predictor."""

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    CPU_SINGLE_THREAD = "cpu_single_thread"
    CPU_MULTI_THREAD = "cpu_multi_thread"
    GRAPHICS = "graphics"
    IDLE = "idle"


@dataclass(frozen=True)
class Domain:
    """Static description of one processor domain.

    Attributes
    ----------
    kind:
        Which of the six domains this is.
    leakage_fraction:
        Fraction of the domain's nominal power that is leakage (``F_L`` in
        Eq. 2).  The paper uses 45 % for graphics and 22 % elsewhere.
    min_voltage_v / max_voltage_v:
        Operational voltage range of the domain.
    fixed_voltage_v:
        For fixed-frequency domains (SA, IO) the single operating voltage;
        ``None`` for DVFS domains.
    """

    kind: DomainKind
    leakage_fraction: float
    min_voltage_v: float
    max_voltage_v: float
    fixed_voltage_v: float = None

    def __post_init__(self) -> None:
        require_fraction(self.leakage_fraction, "leakage_fraction")
        require_positive(self.min_voltage_v, "min_voltage_v")
        require_positive(self.max_voltage_v, "max_voltage_v")
        if self.max_voltage_v < self.min_voltage_v:
            raise ConfigurationError(
                f"{self.kind}: max_voltage_v below min_voltage_v"
            )


@dataclass(frozen=True)
class DomainLoad:
    """The electrical load one domain presents to its PDN at one instant.

    Attributes
    ----------
    kind:
        Which domain this load belongs to.
    nominal_power_w:
        The domain's nominal power ``P_NOM`` (Sec. 3.1): the power the domain
        would draw at exactly its nominal voltage with no guardbands.
    voltage_v:
        The domain's nominal supply voltage ``V_NOM``.
    leakage_fraction:
        Fraction of ``nominal_power_w`` that is leakage.
    active:
        ``False`` when the domain is power-gated (idle); a gated domain draws
        no power from the PDN.
    power_gated_rail:
        ``True`` when the domain sits behind an on-chip power gate in PDNs that
        use them (MBVR: cores and LLC; LDO/FlexWatts: SA/IO do not).
    """

    kind: DomainKind
    nominal_power_w: float
    voltage_v: float
    leakage_fraction: float
    active: bool = True
    power_gated_rail: bool = True

    def __post_init__(self) -> None:
        require_non_negative(self.nominal_power_w, "nominal_power_w")
        require_positive(self.voltage_v, "voltage_v")
        require_fraction(self.leakage_fraction, "leakage_fraction")

    @property
    def effective_power_w(self) -> float:
        """Nominal power if active, zero if power-gated."""
        return self.nominal_power_w if self.active else 0.0

    @property
    def current_a(self) -> float:
        """Nominal current drawn by the domain (``P_NOM / V_NOM``)."""
        if not self.active:
            return 0.0
        return self.nominal_power_w / self.voltage_v

    def scaled(self, factor: float) -> "DomainLoad":
        """Return a copy of this load with the nominal power scaled by ``factor``."""
        require_non_negative(factor, "factor")
        return replace(self, nominal_power_w=self.nominal_power_w * factor)


#: Default static domain descriptions (Table 1 / Table 2 of the paper).
DEFAULT_DOMAINS: Dict[DomainKind, Domain] = {
    DomainKind.CORE0: Domain(DomainKind.CORE0, leakage_fraction=0.22, min_voltage_v=0.55, max_voltage_v=1.10),
    DomainKind.CORE1: Domain(DomainKind.CORE1, leakage_fraction=0.22, min_voltage_v=0.55, max_voltage_v=1.10),
    DomainKind.LLC: Domain(DomainKind.LLC, leakage_fraction=0.22, min_voltage_v=0.55, max_voltage_v=1.10),
    DomainKind.GFX: Domain(DomainKind.GFX, leakage_fraction=0.45, min_voltage_v=0.55, max_voltage_v=1.00),
    DomainKind.SA: Domain(DomainKind.SA, leakage_fraction=0.22, min_voltage_v=0.80, max_voltage_v=0.80, fixed_voltage_v=0.80),
    DomainKind.IO: Domain(DomainKind.IO, leakage_fraction=0.22, min_voltage_v=1.00, max_voltage_v=1.00, fixed_voltage_v=1.00),
}

#: TDP breakpoints used by every nominal-power curve (watts).  These are the
#: TDP levels the paper evaluates (Fig. 2, Fig. 8).
TDP_BREAKPOINTS_W: Tuple[float, ...] = (4.0, 8.0, 10.0, 18.0, 25.0, 36.0, 50.0)


@dataclass(frozen=True)
class NominalPowerCurves:
    """Nominal power of each domain as a function of TDP.

    Two scenarios are captured: the power a domain consumes when it is the
    *primary* consumer of the compute budget (e.g. cores during a
    CPU-intensive workload) and when it is *secondary* (e.g. cores during a
    graphics workload, which the paper says receive only 10--20 % of the
    compute budget).
    """

    cores_primary_w: LinearTable1D = field(
        default_factory=lambda: LinearTable1D(
            TDP_BREAKPOINTS_W, (0.60, 2.00, 2.70, 8.30, 12.00, 18.40, 26.00)
        )
    )
    cores_secondary_w: LinearTable1D = field(
        default_factory=lambda: LinearTable1D(
            TDP_BREAKPOINTS_W, (0.20, 0.45, 0.60, 1.40, 2.00, 2.90, 4.00)
        )
    )
    gfx_primary_w: LinearTable1D = field(
        default_factory=lambda: LinearTable1D(
            TDP_BREAKPOINTS_W, (0.58, 1.90, 2.60, 7.50, 11.00, 17.00, 24.00)
        )
    )
    llc_w: LinearTable1D = field(
        default_factory=lambda: LinearTable1D(
            TDP_BREAKPOINTS_W, (0.50, 0.70, 0.80, 1.50, 2.00, 3.00, 4.00)
        )
    )
    sa_w: LinearTable1D = field(
        default_factory=lambda: LinearTable1D(
            TDP_BREAKPOINTS_W, (0.70, 0.75, 0.80, 0.90, 1.00, 1.10, 1.20)
        )
    )
    io_w: LinearTable1D = field(
        default_factory=lambda: LinearTable1D(
            TDP_BREAKPOINTS_W, (0.35, 0.40, 0.40, 0.50, 0.55, 0.60, 0.65)
        )
    )
    #: Power drawn by an idle (clock-gated but not power-gated) compute domain.
    idle_compute_w: float = 0.05

    def cores_power_w(self, tdp_w: float, workload_type: WorkloadType) -> float:
        """Total two-core nominal power at ``tdp_w`` for ``workload_type``."""
        require_positive(tdp_w, "tdp_w")
        if workload_type in (WorkloadType.CPU_SINGLE_THREAD, WorkloadType.CPU_MULTI_THREAD):
            total = self.cores_primary_w(tdp_w)
            if workload_type is WorkloadType.CPU_SINGLE_THREAD:
                # A single-threaded workload keeps the second core mostly idle;
                # the active core receives the bulk of the budget (Turbo).
                return 0.80 * total
            return total
        if workload_type is WorkloadType.GRAPHICS:
            return self.cores_secondary_w(tdp_w)
        return self.idle_compute_w

    def gfx_power_w(self, tdp_w: float, workload_type: WorkloadType) -> float:
        """Graphics nominal power at ``tdp_w`` for ``workload_type``."""
        require_positive(tdp_w, "tdp_w")
        if workload_type is WorkloadType.GRAPHICS:
            return self.gfx_primary_w(tdp_w)
        return self.idle_compute_w

    def llc_power_w(self, tdp_w: float, workload_type: WorkloadType) -> float:
        """LLC nominal power at ``tdp_w`` for ``workload_type``."""
        require_positive(tdp_w, "tdp_w")
        if workload_type is WorkloadType.IDLE:
            return self.idle_compute_w
        return self.llc_w(tdp_w)

    def uncore_power_w(self, tdp_w: float) -> Tuple[float, float]:
        """(SA, IO) nominal power at ``tdp_w`` -- nearly flat across TDPs."""
        require_positive(tdp_w, "tdp_w")
        return self.sa_w(tdp_w), self.io_w(tdp_w)


def loads_by_kind(loads: Iterable[DomainLoad]) -> Dict[DomainKind, DomainLoad]:
    """Index a load list by domain kind, checking for duplicates."""
    indexed: Dict[DomainKind, DomainLoad] = {}
    for load in loads:
        if load.kind in indexed:
            raise ConfigurationError(f"duplicate load for domain {load.kind}")
        indexed[load.kind] = load
    return indexed


def validate_load_set(loads: Iterable[DomainLoad]) -> List[DomainLoad]:
    """Validate that ``loads`` holds each of the six domains exactly once, in
    :class:`DomainKind` order (the order the models accumulate in)."""
    load_list = list(loads)
    indexed = loads_by_kind(load_list)
    missing = [kind for kind in DomainKind if kind not in indexed]
    if missing:
        raise ConfigurationError(
            "a PDN evaluation needs a load for every domain; missing: "
            + ", ".join(kind.value for kind in missing)
        )
    for index, (load, kind) in enumerate(zip(load_list, DomainKind)):
        if load.kind is not kind:
            raise ConfigurationError(
                f"loads must be in domain order; load {index} is "
                f"{load.kind.value}, expected {kind.value}"
            )
    return load_list
