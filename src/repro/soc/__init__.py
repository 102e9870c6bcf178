"""SoC substrate: DVFS curves, activity sensors and the power-management unit.

* :mod:`repro.soc.dvfs` -- voltage/frequency curves of the compute domains and
  the sustained operating point each TDP supports.
* :mod:`repro.soc.activity_sensors` -- the activity sensors the PMU uses to
  estimate the application ratio at runtime (Sec. 6).
* :mod:`repro.soc.pmu` -- a behavioural power-management unit: package
  C-state bookkeeping, workload-type classification and the firmware hooks
  FlexWatts' mode switching relies on.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.soc.dvfs import (
        VoltageFrequencyCurve,
        CORE_VF_CURVE,
        GFX_VF_CURVE,
        compute_voltage_for_tdp,
        gfx_voltage_for_tdp,
        sustained_core_frequency_ghz,
        sustained_gfx_frequency_ghz,
    )
    from repro.soc.activity_sensors import ActivityEvent, ActivitySensor, ActivityMonitor
    from repro.soc.pmu import PowerManagementUnit, PmuTelemetry

__all__ = [
    "VoltageFrequencyCurve",
    "CORE_VF_CURVE",
    "GFX_VF_CURVE",
    "compute_voltage_for_tdp",
    "gfx_voltage_for_tdp",
    "sustained_core_frequency_ghz",
    "sustained_gfx_frequency_ghz",
    "ActivityEvent",
    "ActivitySensor",
    "ActivityMonitor",
    "PowerManagementUnit",
    "PmuTelemetry",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.soc.dvfs": (
        "VoltageFrequencyCurve", "CORE_VF_CURVE", "GFX_VF_CURVE", "compute_voltage_for_tdp",
        "gfx_voltage_for_tdp", "sustained_core_frequency_ghz", "sustained_gfx_frequency_ghz",
    ),
    "repro.soc.activity_sensors": ("ActivityEvent", "ActivitySensor", "ActivityMonitor"),
    "repro.soc.pmu": ("PowerManagementUnit", "PmuTelemetry"),
})
