"""Activity sensors: the PMU's runtime proxy for the application ratio.

Sec. 6 of the paper explains how a modern power-management unit estimates the
application ratio (AR) at runtime: each domain implements activity sensors
that count internal events -- active execution ports, memory stalls, the width
of the vector instructions being executed -- and periodically (about every
millisecond) sends a calibrated weighted sum of those counts to the PMU.  The
weights are calibrated post-silicon so that the weighted sum is a good proxy
of AR.

We model exactly that pipeline: an :class:`ActivityEvent` vocabulary, a
per-domain :class:`ActivitySensor` holding calibrated weights, and an
:class:`ActivityMonitor` that aggregates per-domain readings into the
processor-level AR estimate consumed by FlexWatts' mode predictor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.power.domains import DomainKind
from repro.util.errors import ConfigurationError
from repro.util.validation import require_fraction, require_non_negative


class ActivityEvent(enum.Enum):
    """Micro-architectural events counted by the activity sensors."""

    __hash__ = object.__hash__  # members are singletons: hash by identity, in C

    EXECUTION_PORT_ACTIVE = "execution_port_active"
    MEMORY_STALL = "memory_stall"
    SCALAR_INSTRUCTION = "scalar_instruction"
    VECTOR_128_INSTRUCTION = "vector_128_instruction"
    VECTOR_256_INSTRUCTION = "vector_256_instruction"
    VECTOR_512_INSTRUCTION = "vector_512_instruction"
    CACHE_ACCESS = "cache_access"
    TEXTURE_SAMPLE = "texture_sample"
    SHADER_ACTIVE = "shader_active"
    DISPLAY_REFRESH = "display_refresh"


#: Post-silicon calibrated weights: the relative contribution of one event of
#: each type to a domain's switching activity.  Wider vector instructions
#: toggle more transistors and therefore carry larger weights.
DEFAULT_EVENT_WEIGHTS: Dict[ActivityEvent, float] = {
    ActivityEvent.EXECUTION_PORT_ACTIVE: 0.6,
    ActivityEvent.MEMORY_STALL: 0.05,
    ActivityEvent.SCALAR_INSTRUCTION: 0.4,
    ActivityEvent.VECTOR_128_INSTRUCTION: 0.7,
    ActivityEvent.VECTOR_256_INSTRUCTION: 0.85,
    ActivityEvent.VECTOR_512_INSTRUCTION: 1.0,
    ActivityEvent.CACHE_ACCESS: 0.3,
    ActivityEvent.TEXTURE_SAMPLE: 0.8,
    ActivityEvent.SHADER_ACTIVE: 0.9,
    ActivityEvent.DISPLAY_REFRESH: 0.1,
}


@dataclass
class ActivitySensor:
    """One domain's activity sensor.

    Parameters
    ----------
    domain:
        The domain this sensor instruments.
    weights:
        Calibrated per-event weights; defaults to the library-wide calibration.
    reference_events_per_interval:
        The weighted event sum produced by the power-virus workload in one
        reporting interval; readings are normalised against it so the output
        is an AR-like fraction in [0, 1].
    """

    domain: DomainKind
    weights: Mapping[ActivityEvent, float] = field(
        default_factory=lambda: dict(DEFAULT_EVENT_WEIGHTS)
    )
    reference_events_per_interval: float = 1000.0

    def __post_init__(self) -> None:
        require_non_negative(self.reference_events_per_interval, "reference_events_per_interval")
        if self.reference_events_per_interval == 0.0:
            raise ConfigurationError("reference_events_per_interval must be positive")
        for event, weight in self.weights.items():
            require_non_negative(weight, f"weight[{event}]")

    def reading(self, event_counts: Mapping[ActivityEvent, float]) -> float:
        """Convert raw event counts from one interval into an AR-like reading."""
        weighted = 0.0
        for event, count in event_counts.items():
            require_non_negative(count, f"count[{event}]")
            weighted += self.weights.get(event, 0.0) * count
        return min(1.0, weighted / self.reference_events_per_interval)


class ActivityMonitor:
    """Aggregates per-domain sensor readings into the package-level AR estimate.

    The aggregation is power-weighted: a domain that contributes more of the
    package's power also contributes more to the package activity estimate,
    matching how the PMU uses the estimate (to bound peak package current).
    """

    def __init__(self, sensors: Iterable[ActivitySensor] = None):
        if sensors is None:
            sensors = [ActivitySensor(domain=kind) for kind in DomainKind]
        self._sensors: Dict[DomainKind, ActivitySensor] = {}
        for sensor in sensors:
            if sensor.domain in self._sensors:
                raise ConfigurationError(f"duplicate sensor for domain {sensor.domain}")
            self._sensors[sensor.domain] = sensor
        self._last_readings: Dict[DomainKind, float] = {}

    @property
    def sensors(self) -> Dict[DomainKind, ActivitySensor]:
        """The per-domain sensors owned by this monitor."""
        return dict(self._sensors)

    def record(self, domain: DomainKind, reading: float) -> None:
        """Record a pre-normalised AR reading for ``domain`` (used by simulators)."""
        require_fraction(reading, "reading")
        self._last_readings[domain] = reading

    def record_events(
        self, domain: DomainKind, event_counts: Mapping[ActivityEvent, float]
    ) -> float:
        """Convert and record raw event counts for ``domain``; returns the reading."""
        if domain not in self._sensors:
            raise ConfigurationError(f"no sensor configured for domain {domain}")
        reading = self._sensors[domain].reading(event_counts)
        self._last_readings[domain] = reading
        return reading

    def package_application_ratio(
        self, domain_power_w: Mapping[DomainKind, float]
    ) -> float:
        """Power-weighted package AR estimate from the latest per-domain readings."""
        total_power = sum(max(0.0, p) for p in domain_power_w.values())
        if total_power == 0.0:
            return 0.0
        weighted = 0.0
        for domain, power_w in domain_power_w.items():
            reading = self._last_readings.get(domain, 0.0)
            weighted += reading * max(0.0, power_w)
        return min(1.0, weighted / total_power)
