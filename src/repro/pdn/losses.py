"""Loss-breakdown accounting for PDN evaluations.

Fig. 5 of the paper decomposes the power-conversion loss of each PDN into:

* on-chip and off-chip *VR inefficiencies* (switching, quiescent and linear
  regulation losses inside the regulators),
* *conduction loss* (I^2 R) on the path to the core and graphics domains,
* *conduction loss* on the path to the SA and IO domains, and
* *others* (tolerance-band and power-gate guardbands, quiescent power of
  otherwise idle regulators).

:class:`LossBreakdown` carries that decomposition in watts and can normalise
it against a nominal power to produce the percentage bars of Fig. 5.  It is
immutable -- evaluations are shared read-only between cache hits -- so the
scalar models total their losses in a :class:`LossAccumulator` and freeze it
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping


def read_only(mapping: Mapping[str, float]) -> Mapping[str, float]:
    """A read-only view of ``mapping`` (a private copy unless already one)."""
    if type(mapping) is MappingProxyType:
        return mapping
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True)
class LossBreakdown:
    """Decomposition of the power lost inside a PDN, in watts (immutable)."""

    #: Losses inside on-chip regulators (IVRs, LDOs).
    on_chip_vr_w: float = 0.0
    #: Losses inside off-chip (board) regulators, including V_IN.
    off_chip_vr_w: float = 0.0
    #: I^2 R conduction loss on the rails feeding the cores, LLC and graphics.
    conduction_compute_w: float = 0.0
    #: I^2 R conduction loss on the rails feeding the SA and IO domains.
    conduction_uncore_w: float = 0.0
    #: Guardband losses (tolerance band, power-gate drop) and idle quiescent
    #: power of regulators whose loads are gated.
    other_w: float = 0.0
    #: Free-form per-rail diagnostic details, keyed by rail name (read-only).
    rail_details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rail_details", read_only(self.rail_details))

    def __getstate__(self) -> Dict[str, object]:
        # A mappingproxy cannot be pickled: ship the plain dict (the same
        # state earlier versions pickled) and re-wrap it on load.
        return {**self.__dict__, "rail_details": dict(self.rail_details)}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state, rail_details=read_only(state["rail_details"]))

    @property
    def vr_inefficiency_w(self) -> float:
        """Combined on-chip + off-chip regulator losses (the first Fig. 5 bar)."""
        return self.on_chip_vr_w + self.off_chip_vr_w

    @property
    def total_w(self) -> float:
        """Total PDN loss in watts."""
        return (
            self.on_chip_vr_w
            + self.off_chip_vr_w
            + self.conduction_compute_w
            + self.conduction_uncore_w
            + self.other_w
        )

    def merged_with(self, other: "LossBreakdown") -> "LossBreakdown":
        """Return a new breakdown that is the sum of this one and ``other``."""
        merged_details = dict(self.rail_details)
        merged_details.update(other.rail_details)
        return LossBreakdown(
            on_chip_vr_w=self.on_chip_vr_w + other.on_chip_vr_w,
            off_chip_vr_w=self.off_chip_vr_w + other.off_chip_vr_w,
            conduction_compute_w=self.conduction_compute_w + other.conduction_compute_w,
            conduction_uncore_w=self.conduction_uncore_w + other.conduction_uncore_w,
            other_w=self.other_w + other.other_w,
            rail_details=merged_details,
        )

    def as_fractions_of(self, reference_power_w: float) -> dict:
        """Express the breakdown as fractions of ``reference_power_w`` (Fig. 5).

        The paper normalises the loss bars against the total package power.
        """
        if reference_power_w <= 0.0:
            raise ValueError("reference_power_w must be positive")
        return {
            "vr_inefficiency": self.vr_inefficiency_w / reference_power_w,
            "conduction_compute": self.conduction_compute_w / reference_power_w,
            "conduction_uncore": self.conduction_uncore_w / reference_power_w,
            "other": self.other_w / reference_power_w,
        }


class LossAccumulator:
    """Running loss totals a scalar model builds one :class:`LossBreakdown` from.

    The models add each loss term in their fixed order (float addition is
    not associative, and the columnar kernels mirror that order), then call
    :meth:`freeze` once.
    """

    __slots__ = (
        "on_chip_vr_w",
        "off_chip_vr_w",
        "conduction_compute_w",
        "conduction_uncore_w",
        "other_w",
        "rail_details",
    )

    def __init__(self, other_w: float = 0.0):
        self.on_chip_vr_w = 0.0
        self.off_chip_vr_w = 0.0
        self.conduction_compute_w = 0.0
        self.conduction_uncore_w = 0.0
        self.other_w = other_w
        self.rail_details: Dict[str, float] = {}

    def freeze(self) -> LossBreakdown:
        """The immutable breakdown of the totals so far."""
        return LossBreakdown(
            on_chip_vr_w=self.on_chip_vr_w,
            off_chip_vr_w=self.off_chip_vr_w,
            conduction_compute_w=self.conduction_compute_w,
            conduction_uncore_w=self.conduction_uncore_w,
            other_w=self.other_w,
            rail_details=self.rail_details,
        )
