"""Workload substrate.

The paper drives its evaluation with ~5000 proprietary traces from SPEC
CPU2006, 3DMark06 and battery-life suites (MobileMark, video playback, ...).
Those traces are not redistributable, so this package provides synthetic
equivalents that expose the exact observable features the PDNspot models
consume: application ratio, workload type, per-phase power-state residencies,
and performance scalability.

* :mod:`repro.workloads.base` -- the :class:`Benchmark`, :class:`WorkloadPhase`
  and :class:`WorkloadTrace` dataclasses.
* :mod:`repro.workloads.spec_cpu2006` -- the 29 SPEC CPU2006 benchmarks with
  per-benchmark performance scalability ordered as in Fig. 7.
* :mod:`repro.workloads.graphics` -- the 3DMark06 graphics suite.
* :mod:`repro.workloads.battery_life` -- the four battery-life workloads
  (video playback, video conferencing, web browsing, light gaming) with their
  package power-state residencies.
* :mod:`repro.workloads.synthetic` -- seeded trace generators used by the
  validation experiments and property tests.
* :mod:`repro.workloads.scenarios` -- the registry of named, seeded scenario
  trace generators the simulation studies (:mod:`repro.sim.study`) and the
  CLI ``simulate`` sub-command dispatch over.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.workloads.base import Benchmark, WorkloadPhase, WorkloadTrace
    from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS
    from repro.workloads.graphics import THREEDMARK06_BENCHMARKS
    from repro.workloads.battery_life import BATTERY_LIFE_WORKLOADS, BatteryLifeWorkload
    from repro.workloads.synthetic import SyntheticTraceGenerator
    from repro.workloads.scenarios import (
        ScenarioSpec,
        available_scenarios,
        build_scenario_trace,
        get_scenario,
        register_scenario,
    )

__all__ = [
    "Benchmark",
    "WorkloadPhase",
    "WorkloadTrace",
    "SPEC_CPU2006_BENCHMARKS",
    "THREEDMARK06_BENCHMARKS",
    "BatteryLifeWorkload",
    "BATTERY_LIFE_WORKLOADS",
    "SyntheticTraceGenerator",
    "ScenarioSpec",
    "available_scenarios",
    "build_scenario_trace",
    "get_scenario",
    "register_scenario",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.workloads.base": ("Benchmark", "WorkloadPhase", "WorkloadTrace"),
    "repro.workloads.spec_cpu2006": ("SPEC_CPU2006_BENCHMARKS",),
    "repro.workloads.graphics": ("THREEDMARK06_BENCHMARKS",),
    "repro.workloads.battery_life": ("BATTERY_LIFE_WORKLOADS", "BatteryLifeWorkload"),
    "repro.workloads.synthetic": ("SyntheticTraceGenerator",),
    "repro.workloads.scenarios": (
        "ScenarioSpec", "available_scenarios", "build_scenario_trace", "get_scenario",
        "register_scenario",
    ),
})
