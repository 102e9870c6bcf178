"""Registry of parameterised, seeded scenario trace generators.

The paper's headline claims rest on *dynamic* behaviour -- FlexWatts mode
switches, residency guards and PMU-driven decisions over workload traces --
but hand-written traces only exercise a couple of shapes.  This module
provides a registry of named scenario generators, each a deterministic
(seeded) builder of a :class:`~repro.workloads.base.WorkloadTrace` modelling
one archetypal client-device workload:

``bursty-interactive``
    Alternating interactive compute bursts and deep idle (web/UI usage).
``idle-heavy-mobile``
    Mostly-asleep mobile pattern: brief C0_MIN wakes, C2 housekeeping,
    long C8 self-refresh windows.
``sustained-compute``
    Long multi-threaded compute phases with short scheduling gaps.
``mixed-compute-graphics``
    Interleaved CPU and graphics frames (gaming/compositing).
``thermally-throttled``
    A heavy burst followed by a descending application-ratio ladder and a
    recovery, repeated -- the classic thermal-throttle sawtooth.
``race-to-idle``
    Short, near-power-virus bursts that sprint to completion and then sleep
    deeply.
``dvfs-ladder``
    A staircase of application ratios up and back down, revisiting every
    operating point -- the stress test for the phase-batching memo.
``duty-cycled-background``
    Many identical tiny background wakes on a long period -- telemetry
    beacons, sync daemons.

Scenario traces are reproducible work units: ``(scenario name, seed)``
rebuilds the identical trace in any process, which is what lets
:mod:`repro.sim.study` key simulations (and their disk-cache entries) by
scenario reference instead of by trace.  Use :func:`register_scenario` to add project-specific scenarios to
the registry at runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError
from repro.workloads.base import Benchmark, WorkloadPhase, WorkloadTrace

#: Default seed of every scenario builder (the paper's publication year).
DEFAULT_SEED = 2020

#: One phase under construction: (power state, benchmark or None, duration).
_Part = Tuple[PackageCState, Optional[Benchmark], float]


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, seeded trace generator.

    Attributes
    ----------
    name:
        Registry name (kebab-case, e.g. ``"bursty-interactive"``).
    summary:
        One-line description shown by the CLI and the docs site.
    build:
        Deterministic builder ``(rng) -> WorkloadTrace``; the registry hands
        it a :class:`random.Random` seeded from ``(name, seed)`` so equal
        seeds produce bit-identical traces in every process.
    """

    name: str
    summary: str
    build: Callable[[random.Random], WorkloadTrace]

    def trace(self, seed: int = DEFAULT_SEED) -> WorkloadTrace:
        """Build the scenario's trace for ``seed``."""
        return self.build(_scenario_rng(self.name, seed))


def _scenario_rng(name: str, seed: int) -> random.Random:
    """A process-independent RNG for one ``(scenario, seed)`` pair.

    Seeding :class:`random.Random` with a string hashes it with SHA-512
    (never the salted ``hash()``), so every process rebuilding a trace from
    its registry name draws exactly the same phase sequence.
    """
    return random.Random(f"{name}:{seed}")


def _trace_from_parts(name: str, parts: Sequence[_Part]) -> WorkloadTrace:
    """Assemble timed parts into a trace with duration-proportional residencies."""
    total_s = sum(duration_s for _, _, duration_s in parts)
    if total_s <= 0.0:
        raise ConfigurationError(f"scenario {name!r} generated no simulated time")
    phases = tuple(
        WorkloadPhase(
            power_state=state,
            residency=duration_s / total_s,
            benchmark=benchmark,
            duration_s=duration_s,
        )
        for state, benchmark, duration_s in parts
    )
    return WorkloadTrace(name=name, phases=phases)


def _benchmark(
    rng: random.Random,
    label: str,
    workload_type: WorkloadType,
    ar_low: float,
    ar_high: float,
) -> Benchmark:
    """Draw one synthetic benchmark with AR in ``[ar_low, ar_high]``.

    Scalability correlates loosely with AR, as in
    :class:`repro.workloads.synthetic.SyntheticTraceGenerator`: compute-bound
    phases both switch more transistors and scale better with frequency.
    """
    application_ratio = rng.uniform(ar_low, ar_high)
    scalability = min(1.0, max(0.0, rng.gauss(0.2 + 0.8 * application_ratio, 0.08)))
    return Benchmark(
        name=label,
        workload_type=workload_type,
        performance_scalability=scalability,
        application_ratio=application_ratio,
    )


# --------------------------------------------------------------------------- #
# The built-in scenario builders
# --------------------------------------------------------------------------- #
def _build_bursty_interactive(rng: random.Random) -> WorkloadTrace:
    """Interactive bursts (10-40 ms) separated by deep C6 idle (20-80 ms)."""
    parts: List[_Part] = []
    for index in range(20):
        benchmark = _benchmark(
            rng, f"interactive.{index:02d}", WorkloadType.CPU_SINGLE_THREAD, 0.45, 0.75
        )
        parts.append((PackageCState.C0, benchmark, rng.uniform(10e-3, 40e-3)))
        parts.append((PackageCState.C6, None, rng.uniform(20e-3, 80e-3)))
    return _trace_from_parts("bursty-interactive", parts)


def _build_idle_heavy_mobile(rng: random.Random) -> WorkloadTrace:
    """Mostly-asleep mobile usage: C0_MIN wake, C2 housekeeping, long C8."""
    parts: List[_Part] = []
    for _ in range(12):
        parts.append((PackageCState.C0_MIN, None, rng.uniform(5e-3, 15e-3)))
        parts.append((PackageCState.C2, None, rng.uniform(5e-3, 10e-3)))
        parts.append((PackageCState.C8, None, rng.uniform(80e-3, 200e-3)))
    return _trace_from_parts("idle-heavy-mobile", parts)


def _build_sustained_compute(rng: random.Random) -> WorkloadTrace:
    """Long multi-threaded compute phases with short C2 scheduling gaps."""
    parts: List[_Part] = []
    for index in range(6):
        benchmark = _benchmark(
            rng, f"sustained.{index:02d}", WorkloadType.CPU_MULTI_THREAD, 0.70, 0.80
        )
        parts.append((PackageCState.C0, benchmark, rng.uniform(150e-3, 300e-3)))
        parts.append((PackageCState.C2, None, 10e-3))
    return _trace_from_parts("sustained-compute", parts)


def _build_mixed_compute_graphics(rng: random.Random) -> WorkloadTrace:
    """Interleaved CPU and graphics frames, as in gaming or compositing."""
    parts: List[_Part] = []
    for index in range(10):
        cpu = _benchmark(
            rng, f"mixed.cpu.{index:02d}", WorkloadType.CPU_MULTI_THREAD, 0.50, 0.70
        )
        gfx = _benchmark(
            rng, f"mixed.gfx.{index:02d}", WorkloadType.GRAPHICS, 0.55, 0.75
        )
        parts.append((PackageCState.C0, cpu, rng.uniform(8e-3, 16e-3)))
        parts.append((PackageCState.C0, gfx, rng.uniform(12e-3, 24e-3)))
        parts.append((PackageCState.C2, None, rng.uniform(2e-3, 6e-3)))
    return _trace_from_parts("mixed-compute-graphics", parts)


def _build_thermally_throttled(rng: random.Random) -> WorkloadTrace:
    """Thermal-throttle sawtooth: burst, descending-AR ladder, recovery.

    The ladder's benchmarks are drawn once and reused by every cycle, so the
    trace revisits identical operating points -- the behaviour a thermal
    governor actually produces, and a direct beneficiary of phase batching.
    """
    ladder = [
        _benchmark(
            rng,
            f"throttle.step{step}",
            WorkloadType.CPU_MULTI_THREAD,
            0.78 - 0.08 * step,
            0.80 - 0.08 * step,
        )
        for step in range(4)
    ]
    parts: List[_Part] = []
    for _ in range(4):
        for benchmark in ladder:  # descending AR while the governor clamps
            parts.append((PackageCState.C0, benchmark, 40e-3))
        parts.append((PackageCState.C6, None, rng.uniform(30e-3, 60e-3)))
    return _trace_from_parts("thermally-throttled", parts)


def _build_race_to_idle(rng: random.Random) -> WorkloadTrace:
    """Near-power-virus sprints (8-15 ms) followed by deep C8 sleep."""
    parts: List[_Part] = []
    for index in range(15):
        benchmark = _benchmark(
            rng, f"race.{index:02d}", WorkloadType.CPU_MULTI_THREAD, 0.85, 0.95
        )
        parts.append((PackageCState.C0, benchmark, rng.uniform(8e-3, 15e-3)))
        parts.append((PackageCState.C8, None, rng.uniform(100e-3, 200e-3)))
    return _trace_from_parts("race-to-idle", parts)


def _build_dvfs_ladder(rng: random.Random) -> WorkloadTrace:
    """An application-ratio staircase up and back down through nine steps.

    The descent reuses the ascent's benchmarks, so every operating point is
    visited twice -- the canonical workload for the per-run evaluation memo.
    """
    steps = [
        _benchmark(
            rng,
            f"ladder.step{step}",
            WorkloadType.CPU_MULTI_THREAD,
            0.40 + 0.05 * step,
            0.40 + 0.05 * step + 0.01,
        )
        for step in range(9)
    ]
    parts: List[_Part] = [
        (PackageCState.C0, benchmark, 30e-3) for benchmark in steps
    ]
    parts.extend(
        (PackageCState.C0, benchmark, 30e-3) for benchmark in reversed(steps)
    )
    parts.append((PackageCState.C6, None, 60e-3))
    return _trace_from_parts("dvfs-ladder", parts)


def _build_duty_cycled_background(rng: random.Random) -> WorkloadTrace:
    """Forty identical background wakes: one tiny task, then deep sleep.

    Every cycle runs the *same* benchmark for the same duration, so the
    40-cycle trace has exactly three distinct operating points.
    """
    benchmark = _benchmark(
        rng, "background.beacon", WorkloadType.CPU_SINGLE_THREAD, 0.45, 0.55
    )
    parts: List[_Part] = []
    for _ in range(40):
        parts.append((PackageCState.C0, benchmark, 2e-3))
        parts.append((PackageCState.C2, None, 1e-3))
        parts.append((PackageCState.C8, None, 47e-3))
    return _trace_from_parts("duty-cycled-background", parts)


#: The built-in scenario registry, in presentation order.
_SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Add a scenario to the registry (``replace=True`` to override a name)."""
    if not replace and spec.name in _SCENARIOS:
        raise ConfigurationError(
            f"scenario {spec.name!r} is already registered; pass replace=True "
            "to override it"
        )
    _SCENARIOS[spec.name] = spec
    return spec


for _name, _summary, _build in (
    (
        "bursty-interactive",
        "interactive compute bursts separated by deep C6 idle",
        _build_bursty_interactive,
    ),
    (
        "idle-heavy-mobile",
        "brief C0_MIN wakes, C2 housekeeping, long C8 self-refresh",
        _build_idle_heavy_mobile,
    ),
    (
        "sustained-compute",
        "long multi-threaded compute with short scheduling gaps",
        _build_sustained_compute,
    ),
    (
        "mixed-compute-graphics",
        "interleaved CPU and graphics frames (gaming/compositing)",
        _build_mixed_compute_graphics,
    ),
    (
        "thermally-throttled",
        "burst, descending-AR throttle ladder, recovery, repeated",
        _build_thermally_throttled,
    ),
    (
        "race-to-idle",
        "near-power-virus sprints followed by deep C8 sleep",
        _build_race_to_idle,
    ),
    (
        "dvfs-ladder",
        "application-ratio staircase up and down through nine steps",
        _build_dvfs_ladder,
    ),
    (
        "duty-cycled-background",
        "forty identical tiny background wakes on a 50 ms period",
        _build_duty_cycled_background,
    ),
):
    register_scenario(ScenarioSpec(name=_name, summary=_summary, build=_build))


def available_scenarios() -> Tuple[str, ...]:
    """Names of every registered scenario, in registration order."""
    return tuple(_SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up one scenario spec by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}"
        ) from None


def build_scenario_trace(name: str, seed: int = DEFAULT_SEED) -> WorkloadTrace:
    """Build the named scenario's trace for ``seed`` (deterministic)."""
    return get_scenario(name).trace(seed)


