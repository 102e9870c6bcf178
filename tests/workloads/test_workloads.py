"""Tests for the workload substrate (suites, traces, generators)."""

import pytest

from repro.pdn.ivr import IvrPdn
from repro.pdn.mbvr import MbvrPdn
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError
from repro.workloads.base import Benchmark, WorkloadPhase, WorkloadTrace
from repro.workloads.battery_life import BATTERY_LIFE_WORKLOADS
from repro.workloads.graphics import THREEDMARK06_BENCHMARKS
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS
from repro.workloads.synthetic import SyntheticTraceGenerator


class TestBenchmarkAndTrace:
    def test_benchmark_validation(self):
        with pytest.raises(ConfigurationError):
            Benchmark("", WorkloadType.CPU_SINGLE_THREAD, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            Benchmark("x", WorkloadType.CPU_SINGLE_THREAD, 1.5, 0.5)
        with pytest.raises(ConfigurationError):
            Benchmark("x", WorkloadType.CPU_SINGLE_THREAD, 0.5, 0.0)

    def test_active_c0_phase_requires_a_benchmark(self):
        with pytest.raises(ConfigurationError):
            WorkloadPhase(power_state=PackageCState.C0, residency=1.0)

    def test_trace_residencies_must_sum_to_one(self):
        phase = WorkloadPhase(power_state=PackageCState.C8, residency=0.5)
        with pytest.raises(ConfigurationError):
            WorkloadTrace(name="bad", phases=(phase,))

    def test_steady_state_trace(self):
        benchmark = SPEC_CPU2006_BENCHMARKS[0]
        trace = WorkloadTrace.steady_state(benchmark)
        assert trace.active_residency == pytest.approx(1.0)
        assert trace.phases[0].benchmark is benchmark

    def test_phase_workload_type_and_ar(self):
        idle = WorkloadPhase(power_state=PackageCState.C6, residency=1.0)
        assert idle.workload_type is WorkloadType.IDLE
        assert idle.application_ratio == 0.0


class TestSpecSuite:
    def test_suite_has_29_benchmarks(self):
        assert len(SPEC_CPU2006_BENCHMARKS) == 29

    def test_fig7_ordering_is_ascending_scalability(self):
        scalabilities = [b.performance_scalability for b in SPEC_CPU2006_BENCHMARKS]
        assert scalabilities == sorted(scalabilities)
        assert SPEC_CPU2006_BENCHMARKS[0].name == "433.milc"
        assert SPEC_CPU2006_BENCHMARKS[-1].name == "416.gamess"

    def test_application_ratios_in_validation_range(self):
        for benchmark in SPEC_CPU2006_BENCHMARKS:
            assert 0.40 <= benchmark.application_ratio <= 0.80

    def test_average_scalability_reasonable(self):
        scalabilities = [b.performance_scalability for b in SPEC_CPU2006_BENCHMARKS]
        assert 0.5 < sum(scalabilities) / len(scalabilities) < 0.8


class TestGraphicsSuite:
    def test_all_graphics_type(self):
        assert all(b.workload_type is WorkloadType.GRAPHICS for b in THREEDMARK06_BENCHMARKS)

    def test_high_scalability(self):
        assert all(b.performance_scalability >= 0.7 for b in THREEDMARK06_BENCHMARKS)


class TestBatteryLifeWorkloads:
    def test_four_workloads_with_paper_residencies(self):
        suite = BATTERY_LIFE_WORKLOADS
        assert len(suite) == 4
        residencies = {
            workload.name: workload.residencies[PackageCState.C0_MIN] for workload in suite
        }
        assert residencies["video_playback"] == pytest.approx(0.10)
        assert residencies["video_conferencing"] == pytest.approx(0.20)
        assert residencies["web_browsing"] == pytest.approx(0.30)
        assert residencies["light_gaming"] == pytest.approx(0.40)

    def test_residencies_sum_to_one(self):
        for workload in BATTERY_LIFE_WORKLOADS:
            assert sum(workload.residencies.values()) == pytest.approx(1.0)

    def test_average_power_is_positive_and_pdn_dependent(self):
        video = BATTERY_LIFE_WORKLOADS[0]
        ivr_power = video.average_power_w(IvrPdn())
        mbvr_power = video.average_power_w(MbvrPdn())
        assert ivr_power > 0.0
        assert mbvr_power < ivr_power  # Observation 3

    def test_trace_conversion(self):
        trace = BATTERY_LIFE_WORKLOADS[0].trace()
        assert trace.active_residency == pytest.approx(0.10)


class TestSyntheticGenerator:
    def test_generation_is_deterministic_per_seed(self):
        first = SyntheticTraceGenerator(seed=3).benchmarks(10)
        second = SyntheticTraceGenerator(seed=3).benchmarks(10)
        assert [b.application_ratio for b in first] == [b.application_ratio for b in second]

    def test_different_seeds_differ(self):
        first = SyntheticTraceGenerator(seed=3).benchmarks(10)
        second = SyntheticTraceGenerator(seed=4).benchmarks(10)
        assert [b.application_ratio for b in first] != [b.application_ratio for b in second]

    def test_ars_within_requested_range(self):
        population = SyntheticTraceGenerator(seed=1, ar_range=(0.4, 0.8)).benchmarks(50)
        assert all(0.4 <= b.application_ratio <= 0.8 for b in population)

    def test_mixed_population_covers_three_types(self):
        population = SyntheticTraceGenerator(seed=1).mixed_population(5)
        types = {b.workload_type for b in population}
        assert types == {
            WorkloadType.CPU_SINGLE_THREAD,
            WorkloadType.CPU_MULTI_THREAD,
            WorkloadType.GRAPHICS,
        }

    def test_bursty_trace_structure(self):
        generator = SyntheticTraceGenerator(seed=1)
        benchmark = generator.benchmarks(1)[0]
        trace = generator.bursty_trace("bursty", benchmark, active_residency=0.4, phase_count=10)
        assert trace.active_residency == pytest.approx(0.4)
        assert len(trace.phases) == 10

    def test_bursty_trace_validation(self):
        generator = SyntheticTraceGenerator(seed=1)
        benchmark = generator.benchmarks(1)[0]
        with pytest.raises(ConfigurationError):
            generator.bursty_trace("bad", benchmark, active_residency=0.4, phase_count=3)
        with pytest.raises(ConfigurationError):
            generator.bursty_trace("bad", benchmark, active_residency=1.5)
