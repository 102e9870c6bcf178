"""Tests for the interval simulator and FlexWatts' dynamic behaviour."""

import pytest

from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_switching import ModeSwitchController, ModeSwitchOverheads
from repro.pdn.ivr import IvrPdn
from repro.pdn.mbvr import MbvrPdn
from repro.power.power_states import PackageCState
from repro.sim.engine import IntervalSimulator, SimulationResult
from repro.soc.pmu import PowerManagementUnit
from repro.workloads.base import WorkloadPhase, WorkloadTrace
from repro.workloads.battery_life import BATTERY_LIFE_WORKLOADS
from repro.workloads.spec_cpu2006 import SPEC_CPU2006_BENCHMARKS
from repro.workloads.synthetic import SyntheticTraceGenerator


@pytest.fixture(scope="module")
def simulator():
    return IntervalSimulator(tdp_w=18.0, trace_period_s=1.0)


@pytest.fixture(scope="module")
def video_trace():
    return BATTERY_LIFE_WORKLOADS[0].trace()


class TestStaticPdnSimulation:
    def test_energy_is_power_times_time(self, simulator, video_trace):
        result = simulator.run(video_trace, IvrPdn())
        manual = sum(record.supply_power_w * record.duration_s for record in result.phase_records)
        assert result.total_energy_j == pytest.approx(manual)

    def test_total_time_matches_trace_period(self, simulator, video_trace):
        result = simulator.run(video_trace, IvrPdn())
        assert result.total_time_s == pytest.approx(1.0)

    def test_mbvr_uses_less_energy_than_ivr_for_video_playback(self, simulator, video_trace):
        ivr = simulator.run(video_trace, IvrPdn())
        mbvr = simulator.run(video_trace, MbvrPdn())
        assert mbvr.total_energy_j < ivr.total_energy_j

    def test_compare_returns_all_pdns(self, simulator, video_trace):
        results = simulator.compare(video_trace, [IvrPdn(), MbvrPdn()])
        assert set(results) == {"IVR", "MBVR"}


class TestFlexWattsSimulation:
    def test_battery_life_trace_settles_into_ldo_mode(self, simulator, video_trace, flexwatts):
        result = simulator.run(video_trace, flexwatts)
        assert result.time_in_mode_s(PdnMode.LDO_MODE) > 0.0
        assert result.average_power_w < simulator.run(video_trace, IvrPdn()).average_power_w

    def test_bursty_trace_triggers_mode_switches_at_high_tdp(self, flexwatts):
        # At 50 W the active phases want IVR-Mode while idle phases want
        # LDO-Mode, so an adaptive PDN booted in the "wrong" mode must switch.
        generator = SyntheticTraceGenerator(seed=5)
        benchmark = SPEC_CPU2006_BENCHMARKS[-1]
        trace = generator.bursty_trace(
            "bursty", benchmark, active_residency=0.5, phase_duration_s=50e-3, phase_count=8
        )
        simulator = IntervalSimulator(tdp_w=50.0)
        pdn = FlexWattsPdn(
            predictor=flexwatts.predictor,
            switch_controller=ModeSwitchController(
                initial_mode=PdnMode.LDO_MODE, min_residency_s=0.0
            ),
        )
        result = simulator.run(trace, pdn)
        assert result.mode_switch_count >= 1
        assert result.mode_switch_time_s > 0.0
        assert result.mode_switch_energy_j > 0.0

    def test_switch_overhead_is_negligible_for_10ms_phases(self, flexwatts):
        generator = SyntheticTraceGenerator(seed=5)
        benchmark = SPEC_CPU2006_BENCHMARKS[-1]
        trace = generator.bursty_trace(
            "bursty", benchmark, active_residency=0.5, phase_duration_s=10e-3, phase_count=8
        )
        simulator = IntervalSimulator(tdp_w=50.0)
        pdn = FlexWattsPdn(
            predictor=flexwatts.predictor,
            switch_controller=ModeSwitchController(
                initial_mode=PdnMode.LDO_MODE, min_residency_s=0.0
            ),
        )
        result = simulator.run(trace, pdn)
        assert result.mode_switch_time_s < 0.01 * result.total_time_s

    def test_min_residency_limits_switch_rate(self, flexwatts):
        generator = SyntheticTraceGenerator(seed=5)
        benchmark = SPEC_CPU2006_BENCHMARKS[-1]
        trace = generator.bursty_trace(
            "bursty", benchmark, active_residency=0.5, phase_duration_s=5e-3, phase_count=20
        )
        simulator = IntervalSimulator(tdp_w=50.0)
        pdn = FlexWattsPdn(
            predictor=flexwatts.predictor,
            switch_controller=ModeSwitchController(
                initial_mode=PdnMode.LDO_MODE, min_residency_s=1.0
            ),
        )
        result = simulator.run(trace, pdn)
        assert result.mode_switch_count <= 1


class TestEngineEdgeCases:
    def _alternating_trace(self, phase_duration_s=50e-3, pairs=4):
        """Active/idle alternation that forces a switch at every boundary."""
        generator = SyntheticTraceGenerator(seed=5)
        benchmark = SPEC_CPU2006_BENCHMARKS[-1]
        return generator.bursty_trace(
            "alternating",
            benchmark,
            active_residency=0.5,
            phase_duration_s=phase_duration_s,
            phase_count=pairs * 2,
        )

    def test_all_zero_duration_trace_rejected(self):
        from repro.util.errors import ConfigurationError

        benchmark = SPEC_CPU2006_BENCHMARKS[0]
        trace = WorkloadTrace(
            name="zero",
            phases=(
                WorkloadPhase(PackageCState.C0, 0.5, benchmark, duration_s=0.0),
                WorkloadPhase(PackageCState.C6, 0.5, duration_s=0.0),
            ),
        )
        with pytest.raises(ConfigurationError, match="non-zero duration"):
            IntervalSimulator(tdp_w=18.0).run(trace, IvrPdn())

    def test_zero_duration_phases_skipped_not_recorded(self):
        benchmark = SPEC_CPU2006_BENCHMARKS[0]
        trace = WorkloadTrace(
            name="sparse",
            phases=(
                WorkloadPhase(PackageCState.C0, 0.4, benchmark, duration_s=0.2),
                WorkloadPhase(PackageCState.C2, 0.2, duration_s=0.0),
                WorkloadPhase(PackageCState.C6, 0.4, duration_s=0.3),
            ),
        )
        result = IntervalSimulator(tdp_w=18.0).run(trace, IvrPdn())
        assert [record.phase_index for record in result.phase_records] == [0, 2]
        assert result.total_time_s == pytest.approx(0.5)

    def test_min_residency_guard_prevents_thrash(self, flexwatts):
        """With the guard longer than a phase, alternation cannot thrash."""
        trace = self._alternating_trace(phase_duration_s=20e-3, pairs=10)
        simulator = IntervalSimulator(tdp_w=50.0)
        guarded = FlexWattsPdn(
            predictor=flexwatts.predictor,
            switch_controller=ModeSwitchController(
                initial_mode=PdnMode.LDO_MODE, min_residency_s=90e-3
            ),
        )
        free = FlexWattsPdn(
            predictor=flexwatts.predictor,
            switch_controller=ModeSwitchController(
                initial_mode=PdnMode.LDO_MODE, min_residency_s=0.0
            ),
        )
        guarded_result = simulator.run(trace, guarded)
        free_result = simulator.run(trace, free)
        assert free_result.mode_switch_count > guarded_result.mode_switch_count
        # Every inter-switch interval respects the guard: with 20 ms phases
        # and a 90 ms guard at most one switch per 5 phases is possible.
        assert guarded_result.mode_switch_count <= len(trace.phases) // 5 + 1

    def test_consecutive_switch_accounting_accumulates(self, flexwatts):
        """N switches cost exactly N flows in count, time and energy."""
        trace = self._alternating_trace(phase_duration_s=50e-3, pairs=4)
        simulator = IntervalSimulator(tdp_w=50.0)
        controller = ModeSwitchController(
            initial_mode=PdnMode.LDO_MODE, min_residency_s=0.0
        )
        pdn = FlexWattsPdn(predictor=flexwatts.predictor, switch_controller=controller)
        result = simulator.run(trace, pdn)
        assert result.mode_switch_count >= 2  # switches at both edge kinds
        assert result.mode_switch_count == controller.switch_count
        per_switch_s = controller.overheads.total_latency_s
        assert result.mode_switch_time_s == pytest.approx(
            result.mode_switch_count * per_switch_s
        )
        # Energy is paid at the pre-switch mode's power; switches out of the
        # active phase cost more than switches out of idle, so the total sits
        # strictly between N x idle-power and N x active-power flows.
        switched = [r for r in result.phase_records if r.mode_switched]
        assert len(switched) == result.mode_switch_count
        powers = sorted(r.supply_power_w for r in result.phase_records)
        assert result.mode_switch_energy_j > 0.0
        assert result.mode_switch_energy_j < result.mode_switch_count * (
            per_switch_s * powers[-1]
        )
        # Total time includes every flow on top of the trace's phase time.
        phase_time = sum(r.duration_s for r in result.phase_records)
        assert result.total_time_s == pytest.approx(
            phase_time + result.mode_switch_time_s
        )

    def test_phase_memo_preserves_results(self, flexwatts):
        """Batched (memoised) evaluation is invisible in the outcome.

        The duty-cycled scenario repeats one operating point 40 times; the
        memo must serve repeats without changing any aggregate relative to
        an evaluation hook that recomputes every phase.
        """
        from repro.workloads.scenarios import build_scenario_trace

        trace = build_scenario_trace("duty-cycled-background")
        simulator = IntervalSimulator(tdp_w=18.0)
        calls = []

        def counting_evaluate(pdn, conditions):
            calls.append(conditions)
            return pdn.evaluate(conditions)

        memoised = simulator.run(trace, IvrPdn(), evaluate=counting_evaluate)
        assert len(calls) == 3  # 120 phases, 3 distinct operating points
        direct = simulator.run(trace, IvrPdn())
        assert memoised == direct


class TestTraceHandling:
    def test_c0_phase_without_benchmark_rejected(self, simulator):
        from repro.util.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            WorkloadTrace(
                name="bad",
                phases=(WorkloadPhase(power_state=PackageCState.C0, residency=1.0),),
            )

    def test_explicit_durations_override_residency(self):
        benchmark = SPEC_CPU2006_BENCHMARKS[0]
        trace = WorkloadTrace(
            name="timed",
            phases=(
                WorkloadPhase(PackageCState.C0, 0.5, benchmark, duration_s=0.2),
                WorkloadPhase(PackageCState.C6, 0.5, duration_s=0.3),
            ),
        )
        result = IntervalSimulator(tdp_w=18.0).run(trace, IvrPdn())
        assert result.total_time_s == pytest.approx(0.5)


class _RecordingPmu(PowerManagementUnit):
    """A PMU that logs every package-state transition it is driven through."""

    def __init__(self, tdp_w):
        super().__init__(tdp_w=tdp_w)
        self.states = []

    def enter_power_state(self, state):
        self.states.append(state)
        return super().enter_power_state(state)


def _switching_run(flexwatts, pmu=None):
    """A 50 W active/idle alternation with no residency guard: many switches."""
    generator = SyntheticTraceGenerator(seed=5)
    trace = generator.bursty_trace(
        "alternating", SPEC_CPU2006_BENCHMARKS[-1],
        active_residency=0.5, phase_duration_s=50e-3, phase_count=8,
    )
    pdn = FlexWattsPdn(
        predictor=flexwatts.predictor,
        switch_controller=ModeSwitchController(
            initial_mode=PdnMode.LDO_MODE, min_residency_s=0.0
        ),
    )
    return IntervalSimulator(tdp_w=50.0).run(trace, pdn, pmu=pmu)


class TestPmuObservation:
    """A PMU is driven when someone observes it, and never changes results."""

    def test_supplied_pmu_is_driven(self, flexwatts):
        pmu = _RecordingPmu(tdp_w=50.0)
        snapshots = []
        pmu.add_telemetry_listener(snapshots.append)
        result = _switching_run(flexwatts, pmu=pmu)
        assert result.mode_switch_count >= 2
        expected_states = []
        current = PackageCState.C0
        for record in result.phase_records:
            if record.mode_switched:
                # The switch flow: C6 entry, then resume in the active state.
                resume = current if current in (PackageCState.C0, PackageCState.C0_MIN) else PackageCState.C0
                expected_states += [PackageCState.C6, resume]
                current = resume
            current = PackageCState(record.power_state)
            expected_states.append(current)
        assert pmu.states == expected_states
        assert pmu.power_state is current
        phase_time = sum(record.duration_s for record in result.phase_records)
        flow_adjust = result.mode_switch_count * ModeSwitchOverheads().vr_adjust_s
        assert pmu.time_s > phase_time + flow_adjust  # C6 entry/exit latencies on top
        assert len(snapshots) == len(result.phase_records)
        assert result == _switching_run(flexwatts)

    def test_no_pmu_is_built_unless_observed(self, flexwatts, monkeypatch):
        from repro.sim import engine as sim_engine
        from repro.sim.study import SimEngine, SimPoint

        built = []

        def counting_pmu(*args, **kwargs):
            built.append(args)
            return PowerManagementUnit(*args, **kwargs)

        monkeypatch.setattr(sim_engine, "PowerManagementUnit", counting_pmu)
        _switching_run(flexwatts)
        point = SimPoint(scenario="bursty-interactive", tdp_w=50.0)
        SimEngine(enable_cache=False).evaluate_units(
            [(name, point, ()) for name in ("IVR", "FlexWatts")]
        )
        assert built == []

    def test_traced_run_emits_one_telemetry_instant_per_phase(self, flexwatts):
        from repro.obs.trace import install_tracer, uninstall_tracer
        from repro.sim.study import SimEngine, SimPoint

        point = SimPoint(scenario="bursty-interactive", tdp_w=50.0)
        units = [(name, point, ()) for name in ("MBVR", "FlexWatts")]
        untraced = SimEngine(enable_cache=False).evaluate_units(units)
        untraced_run = _switching_run(flexwatts)
        tracer = install_tracer()
        try:
            traced = SimEngine(enable_cache=False).evaluate_units(units)
            traced_run = _switching_run(flexwatts)
        finally:
            uninstall_tracer()
        telemetry = [r for r in tracer.records() if r.name == "pmu.telemetry"]
        switches = [r for r in tracer.records() if r.name == "sim.mode_switch"]
        phases = sum(len(result.phase_records) for result in traced) + len(
            traced_run.phase_records
        )
        assert len(telemetry) == phases
        assert len(switches) == sum(r.mode_switch_count for r in traced) + (
            traced_run.mode_switch_count
        )
        assert traced == untraced
        assert traced_run == untraced_run


class TestReadOnlyResults:
    def test_results_are_frozen_with_tuple_records(self, simulator, video_trace):
        import dataclasses

        result = simulator.run(video_trace, IvrPdn())
        assert isinstance(result.phase_records, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.mode_switch_count = 3
        listed = SimulationResult("IVR", "t", 18.0, list(result.phase_records))
        assert isinstance(listed.phase_records, tuple)

    def test_pickled_list_records_load_as_a_tuple(self, simulator, video_trace):
        """Entries written before results were read-only hold a list."""
        import pickle

        result = simulator.run(video_trace, IvrPdn())
        legacy = object.__new__(SimulationResult)
        legacy.__dict__.update(result.__dict__, phase_records=list(result.phase_records))
        loaded = pickle.loads(pickle.dumps(legacy))
        assert isinstance(loaded.phase_records, tuple)
        assert loaded == result
