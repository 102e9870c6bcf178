"""Interval-based system simulation.

PDNspot's analytic models evaluate one operating point at a time (Sec. 3.4
notes that time-varying workloads are handled by evaluating each interval
separately).  The :class:`~repro.sim.engine.IntervalSimulator` automates
exactly that: it replays a :class:`~repro.workloads.base.WorkloadTrace`
phase by phase against a processor + PDN combination, drives the PMU's
power-state machine, and -- when the PDN is FlexWatts -- runs the Algorithm-1
predictor every evaluation interval and pays the mode-switch flow's latency
and energy whenever the selected mode changes.

On top of the engine, :mod:`repro.sim.study` makes simulation a first-class
grid workload: a :class:`~repro.sim.study.SimStudy` crosses the registered
scenario generators (:mod:`repro.workloads.scenarios`) with TDPs, seeds and
parameter overrides, and :func:`~repro.sim.study.run_sim` dispatches the
grid through the same dispatch path as the analytic engine, returning a
:class:`~repro.analysis.resultset.ResultSet` built by the adapters in
:mod:`repro.sim.adapters`.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.sim.adapters import (
        SIM_METRIC_COLUMNS,
        phases_to_resultset,
        simulation_record,
    )
    from repro.sim.engine import (
        IntervalSimulator,
        PhaseRecord,
        SimulationResult,
        phase_conditions,
        phase_duration,
        telemetry_profile,
    )
    from repro.sim.study import (
        SimEngine,
        SimPoint,
        SimStudy,
        SimStudyBuilder,
        run_sim,
    )

__all__ = [
    "IntervalSimulator",
    "SimulationResult",
    "PhaseRecord",
    "phase_conditions",
    "phase_duration",
    "telemetry_profile",
    "SimEngine",
    "SimPoint",
    "SimStudy",
    "SimStudyBuilder",
    "run_sim",
    "SIM_METRIC_COLUMNS",
    "simulation_record",
    "phases_to_resultset",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.sim.adapters": ("SIM_METRIC_COLUMNS", "phases_to_resultset", "simulation_record"),
    "repro.sim.engine": (
        "IntervalSimulator", "PhaseRecord", "SimulationResult", "phase_conditions",
        "phase_duration", "telemetry_profile",
    ),
    "repro.sim.study": ("SimEngine", "SimPoint", "SimStudy", "SimStudyBuilder", "run_sim"),
})
