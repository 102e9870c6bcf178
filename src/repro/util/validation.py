"""Argument-validation helpers used by public constructors.

Each helper returns the validated value so it can be used inline::

    self.efficiency = require_fraction(efficiency, "efficiency")
"""

from __future__ import annotations

import math

from repro.util.errors import ConfigurationError


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and finite."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is zero or positive, and finite."""
    if not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


def require_fraction(value: float, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be within [0, 1], got {value!r}")
    return value

