"""The central PDNspot parameter set (Table 2 of the paper).

Every PDN model in :mod:`repro.pdn` and the FlexWatts model in
:mod:`repro.core` is constructed from a :class:`PdnTechnologyParameters`
instance.  The defaults reproduce the main parameters of Table 2:

===========================  ==========================================
Parameter                    Default
===========================  ==========================================
Load-line impedance (mOhm)   IVR: IN = 1;
                             MBVR: cores, GFX, SA, IO = 2.5, 2.5, 7, 4;
                             LDO: IN, SA, IO = 1.25, 7, 4
VR tolerance band (mV)       IVR 20, MBVR 19, LDO 17 (mid-range values)
On-chip VR efficiency        IVR 81--88 %; LDO (Vout/Vin) x 99.1 %
Off-chip VR efficiency       72--93 % (function of Vin, Vout, Iout, PS)
Leakage fraction             45 % graphics, 22 % elsewhere
Power-gate impedance (mOhm)  1--2 depending on the domain
===========================  ==========================================

Experiments that explore the parameter space (one of PDNspot's design goals)
construct perturbed copies via :func:`dataclasses.replace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.power.domains import UNCORE_DOMAINS, DomainKind
from repro.util.errors import ConfigurationError
from repro.util.validation import require_fraction, require_non_negative, require_positive

_ALL_DOMAINS = frozenset(DomainKind)
_UNCORE_DOMAINS = frozenset(UNCORE_DOMAINS)

#: Per-domain fields: ``name -> (domains the models read, domains allowed)``.
#: MBVR reads one load-line per rail, keyed by the rail's first domain; the
#: power-gate drop is read for every domain (a missing key would silently
#: mean "no gate").
PER_DOMAIN_FIELDS: Mapping[str, Tuple[FrozenSet[DomainKind], FrozenSet[DomainKind]]] = {
    "mbvr_loadline_ohm": (
        frozenset((DomainKind.CORE0, DomainKind.GFX, DomainKind.SA, DomainKind.IO)),
        _ALL_DOMAINS,
    ),
    "uncore_loadline_ohm": (_UNCORE_DOMAINS, _UNCORE_DOMAINS),
    "power_gate_impedance_ohm": (_ALL_DOMAINS, _ALL_DOMAINS),
}


def _domain_names(keys) -> str:
    return ", ".join(sorted(getattr(key, "value", repr(key)) for key in keys))


def _check_per_domain(name: str, values: object) -> None:
    """Validate one per-domain field; errors name ``field/domain``."""
    required, allowed = PER_DOMAIN_FIELDS[name]
    if not isinstance(values, Mapping):
        raise ConfigurationError(
            f"{name}: expected a mapping of domain to value, got {values!r}"
        )
    missing = required - values.keys()
    if missing:
        raise ConfigurationError(f"{name}: missing domains {_domain_names(missing)}")
    extra = [key for key in values if key not in allowed]
    if extra:
        raise ConfigurationError(
            f"{name}: unexpected keys {_domain_names(extra)} "
            f"(allowed: {_domain_names(allowed)})"
        )
    for domain, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Real) or not value >= 0:
            raise ConfigurationError(
                f"{name}/{domain.value}: must be a number >= 0, got {value!r}"
            )
        if not math.isfinite(value):
            raise ConfigurationError(f"{name}/{domain.value}: must be finite, got {value!r}")


@dataclass(frozen=True)
class PdnTechnologyParameters:
    """Technology parameters shared by all PDN models."""

    # ------------------------------------------------------------------ #
    # Platform supply and first-stage voltages
    # ------------------------------------------------------------------ #
    #: Voltage delivered by the power supply unit or battery to the board VRs.
    supply_voltage_v: float = 7.2
    #: Output of the first-stage V_IN regulator when the second stage is an
    #: IVR (Sec. 2.3 quotes "typically less than 2 V, e.g. 1.8 V").
    ivr_input_voltage_v: float = 1.8

    # ------------------------------------------------------------------ #
    # Load-line impedances (ohms) -- Table 2 quotes milliohms
    # ------------------------------------------------------------------ #
    ivr_input_loadline_ohm: float = 1.0e-3
    mbvr_loadline_ohm: Dict[DomainKind, float] = field(
        default_factory=lambda: {
            DomainKind.CORE0: 2.5e-3,
            DomainKind.CORE1: 2.5e-3,
            DomainKind.LLC: 2.5e-3,
            DomainKind.GFX: 2.5e-3,
            DomainKind.SA: 7.0e-3,
            DomainKind.IO: 4.0e-3,
        }
    )
    ldo_input_loadline_ohm: float = 1.25e-3
    #: SA/IO board-rail load-lines used by the LDO, I+MBVR and FlexWatts PDNs.
    uncore_loadline_ohm: Dict[DomainKind, float] = field(
        default_factory=lambda: {
            DomainKind.SA: 7.0e-3,
            DomainKind.IO: 4.0e-3,
        }
    )
    #: FlexWatts' hybrid regulator shares routing between its IVR and LDO
    #: modes, which slightly raises its effective load-line over a dedicated
    #: design (Sec. 7.1: "<1 % performance loss due to the higher load-line").
    flexwatts_loadline_scale: float = 1.12

    # ------------------------------------------------------------------ #
    # Tolerance bands (volts)
    # ------------------------------------------------------------------ #
    ivr_tolerance_band_v: float = 20e-3
    mbvr_tolerance_band_v: float = 19e-3
    ldo_tolerance_band_v: float = 17e-3

    # ------------------------------------------------------------------ #
    # On-chip power gates
    # ------------------------------------------------------------------ #
    power_gate_impedance_ohm: Dict[DomainKind, float] = field(
        default_factory=lambda: {
            DomainKind.CORE0: 1.0e-3,
            DomainKind.CORE1: 1.0e-3,
            DomainKind.LLC: 1.5e-3,
            DomainKind.GFX: 1.5e-3,
            DomainKind.SA: 2.0e-3,
            DomainKind.IO: 2.0e-3,
        }
    )

    # ------------------------------------------------------------------ #
    # Leakage model
    # ------------------------------------------------------------------ #
    leakage_exponent: float = 2.8

    # ------------------------------------------------------------------ #
    # LDO regulator
    # ------------------------------------------------------------------ #
    ldo_current_efficiency: float = 0.991

    def __post_init__(self) -> None:
        require_positive(self.supply_voltage_v, "supply_voltage_v")
        require_positive(self.ivr_input_voltage_v, "ivr_input_voltage_v")
        require_non_negative(self.ivr_input_loadline_ohm, "ivr_input_loadline_ohm")
        require_non_negative(self.ldo_input_loadline_ohm, "ldo_input_loadline_ohm")
        require_positive(self.flexwatts_loadline_scale, "flexwatts_loadline_scale")
        require_non_negative(self.ivr_tolerance_band_v, "ivr_tolerance_band_v")
        require_non_negative(self.mbvr_tolerance_band_v, "mbvr_tolerance_band_v")
        require_non_negative(self.ldo_tolerance_band_v, "ldo_tolerance_band_v")
        require_positive(self.leakage_exponent, "leakage_exponent")
        require_fraction(self.ldo_current_efficiency, "ldo_current_efficiency")
        for name in PER_DOMAIN_FIELDS:
            _check_per_domain(name, getattr(self, name))

    def with_overrides(self, **overrides) -> "PdnTechnologyParameters":
        """Return a copy with the given fields replaced (for sweeps/what-ifs).

        The copy is validated like any instance, so a bad override fails here
        with an error naming the field (and, for per-domain fields, the
        domain) rather than later inside a model.
        """
        return replace(self, **overrides)


def default_parameters() -> PdnTechnologyParameters:
    """Return the default Table 2 parameter set."""
    return PdnTechnologyParameters()
