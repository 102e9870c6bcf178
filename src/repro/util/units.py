"""Explicit unit-conversion helpers.

The PDNspot models in the paper mix units freely: nominal powers are quoted in
watts and the frequency-sensitivity curve in milliwatts.  Internally the
library uses SI base units everywhere (watts, volts, ohms, amps, hertz,
seconds) and converts at the boundary with these helpers so that every
conversion is visible at the call site.
"""

from __future__ import annotations

MILLI = 1e-3


def watts_to_milliwatts(power_w: float) -> float:
    """Convert a power in watts to milliwatts."""
    return power_w / MILLI
