"""Synthetic trace generation.

The paper's validation uses ~5000 proprietary traces spanning single-threaded,
multi-programmed and graphics workloads with application ratios between 40 %
and 80 %, plus synthetic power-virus traces per domain.  This module generates
statistically similar synthetic populations with a seeded random generator so
that experiments are reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError
from repro.workloads.base import Benchmark, WorkloadPhase, WorkloadTrace


@dataclass
class SyntheticTraceGenerator:
    """Seeded generator of benchmark populations and phase traces.

    Parameters
    ----------
    seed:
        Seed of the internal random generator; identical seeds produce
        identical populations.
    ar_range:
        Range of application ratios to draw from (the paper's validation uses
        40--80 %).
    """

    seed: int = 2020
    ar_range: Sequence[float] = (0.40, 0.80)

    def __post_init__(self) -> None:
        low, high = self.ar_range
        if not 0.0 < low <= high <= 1.0:
            raise ConfigurationError(f"invalid ar_range {self.ar_range!r}")
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------ #
    # Benchmark populations
    # ------------------------------------------------------------------ #
    def benchmarks(
        self,
        count: int,
        workload_type: WorkloadType = WorkloadType.CPU_SINGLE_THREAD,
        prefix: Optional[str] = None,
    ) -> List[Benchmark]:
        """Draw ``count`` synthetic benchmarks of ``workload_type``."""
        if count < 1:
            raise ConfigurationError("count must be at least 1")
        low, high = self.ar_range
        prefix = prefix if prefix is not None else f"synthetic.{workload_type.value}"
        population: List[Benchmark] = []
        for index in range(count):
            application_ratio = self._rng.uniform(low, high)
            # Scalability loosely correlates with AR: compute-bound phases
            # both switch more transistors and scale better with frequency.
            base_scalability = 0.15 + 0.9 * (application_ratio - low) / max(high - low, 1e-9)
            scalability = min(1.0, max(0.0, self._rng.gauss(base_scalability, 0.1)))
            population.append(
                Benchmark(
                    name=f"{prefix}.{index:04d}",
                    workload_type=workload_type,
                    performance_scalability=scalability,
                    application_ratio=application_ratio,
                )
            )
        return population

    def mixed_population(self, count_per_type: int) -> List[Benchmark]:
        """Single-threaded + multi-programmed + graphics populations combined."""
        population: List[Benchmark] = []
        for workload_type in (
            WorkloadType.CPU_SINGLE_THREAD,
            WorkloadType.CPU_MULTI_THREAD,
            WorkloadType.GRAPHICS,
        ):
            population.extend(self.benchmarks(count_per_type, workload_type))
        return population

    # ------------------------------------------------------------------ #
    # Phase traces
    # ------------------------------------------------------------------ #
    def bursty_trace(
        self,
        name: str,
        benchmark: Benchmark,
        active_residency: float,
        phase_duration_s: float = 10e-3,
        phase_count: int = 20,
    ) -> WorkloadTrace:
        """A trace alternating between active execution and deep idle.

        Used to exercise FlexWatts' mode switching in the interval simulator:
        the active phases pull the hybrid PDN towards one mode, the idle
        phases towards the other.
        """
        if not 0.0 < active_residency < 1.0:
            raise ConfigurationError("active_residency must be in (0, 1)")
        if phase_count < 2 or phase_count % 2 != 0:
            raise ConfigurationError("phase_count must be an even number >= 2")
        pairs = phase_count // 2
        phases: List[WorkloadPhase] = []
        for _ in range(pairs):
            phases.append(
                WorkloadPhase(
                    power_state=PackageCState.C0,
                    residency=active_residency / pairs,
                    benchmark=benchmark,
                    duration_s=phase_duration_s,
                )
            )
            phases.append(
                WorkloadPhase(
                    power_state=PackageCState.C6,
                    residency=(1.0 - active_residency) / pairs,
                    duration_s=phase_duration_s,
                )
            )
        return WorkloadTrace(name=name, phases=tuple(phases))
