"""Shared utilities for the FlexWatts / PDNspot reproduction.

This package contains small, dependency-free helpers used across every other
subpackage:

* :mod:`repro.util.units` -- explicit unit conversion (the models mix
  watts and milliwatts, and silent unit bugs are the most common source of
  error in PDN modelling).
* :mod:`repro.util.errors` -- the exception hierarchy for the library.
* :mod:`repro.util.validation` -- argument-validation helpers used by public
  constructors.
* :mod:`repro.util.interpolate` -- 1-D table interpolation used by the
  voltage-regulator efficiency curves and the ETEE curve tables stored in the
  FlexWatts mode predictor.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.util.errors import (
        ConfigurationError,
        ModelDomainError,
        ReproError,
        UnsupportedOperatingPointError,
    )
    from repro.util.units import watts_to_milliwatts
    from repro.util.validation import require_fraction, require_non_negative, require_positive
    from repro.util.interpolate import LinearTable1D, clamp

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ModelDomainError",
    "UnsupportedOperatingPointError",
    "watts_to_milliwatts",
    "require_positive",
    "require_non_negative",
    "require_fraction",
    "LinearTable1D",
    "clamp",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.util.errors": (
        "ConfigurationError", "ModelDomainError", "ReproError", "UnsupportedOperatingPointError",
    ),
    "repro.util.units": ("watts_to_milliwatts",),
    "repro.util.validation": ("require_fraction", "require_non_negative", "require_positive"),
    "repro.util.interpolate": ("LinearTable1D", "clamp"),
})
