"""Shared utilities for the FlexWatts / PDNspot reproduction.

This package contains small, dependency-free helpers used across every other
subpackage:

* :mod:`repro.util.units` -- explicit unit-conversion helpers (the models mix
  watts/milliwatts, volts/millivolts and ohms/milliohms, and silent unit bugs
  are the most common source of error in PDN modelling).
* :mod:`repro.util.errors` -- the exception hierarchy for the library.
* :mod:`repro.util.validation` -- argument-validation helpers used by public
  constructors.
* :mod:`repro.util.interpolate` -- 1-D and 2-D table interpolation used by the
  voltage-regulator efficiency surfaces and the ETEE curve tables stored in the
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
    from repro.util.units import (
        amps_from_milliamps,
        milliamps_from_amps,
        milliohms_to_ohms,
        millivolts_to_volts,
        milliwatts_to_watts,
        ohms_to_milliohms,
        volts_to_millivolts,
        watts_to_milliwatts,
    )
    from repro.util.validation import (
        require_fraction,
        require_in_range,
        require_non_negative,
        require_positive,
    )
    from repro.util.interpolate import LinearTable1D, BilinearTable2D, clamp

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ModelDomainError",
    "UnsupportedOperatingPointError",
    "watts_to_milliwatts",
    "milliwatts_to_watts",
    "volts_to_millivolts",
    "millivolts_to_volts",
    "ohms_to_milliohms",
    "milliohms_to_ohms",
    "amps_from_milliamps",
    "milliamps_from_amps",
    "require_positive",
    "require_non_negative",
    "require_fraction",
    "require_in_range",
    "LinearTable1D",
    "BilinearTable2D",
    "clamp",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.util.errors": (
        "ConfigurationError", "ModelDomainError", "ReproError", "UnsupportedOperatingPointError",
    ),
    "repro.util.units": (
        "amps_from_milliamps", "milliamps_from_amps", "milliohms_to_ohms", "millivolts_to_volts",
        "milliwatts_to_watts", "ohms_to_milliohms", "volts_to_millivolts", "watts_to_milliwatts",
    ),
    "repro.util.validation": (
        "require_fraction", "require_in_range", "require_non_negative", "require_positive",
    ),
    "repro.util.interpolate": ("LinearTable1D", "BilinearTable2D", "clamp"),
})
