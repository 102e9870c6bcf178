"""Tests for the activity sensors and the PMU."""

import pytest

from repro.power.domains import DomainKind, WorkloadType
from repro.power.power_states import PackageCState
from repro.soc.activity_sensors import ActivityEvent, ActivityMonitor, ActivitySensor
from repro.soc.pmu import (
    PACKAGE_C6_ENTRY_LATENCY_S,
    PACKAGE_C6_EXIT_LATENCY_S,
    PowerManagementUnit,
)
from repro.util.errors import ConfigurationError, ModelDomainError


class TestActivitySensors:
    def test_reading_normalised_against_power_virus(self):
        sensor = ActivitySensor(domain=DomainKind.CORE0, reference_events_per_interval=100.0)
        reading = sensor.reading({ActivityEvent.SCALAR_INSTRUCTION: 100.0})
        assert reading == pytest.approx(0.4)

    def test_reading_saturates_at_one(self):
        sensor = ActivitySensor(domain=DomainKind.CORE0, reference_events_per_interval=10.0)
        assert sensor.reading({ActivityEvent.VECTOR_512_INSTRUCTION: 1000.0}) == 1.0

    def test_wider_vectors_weigh_more(self):
        sensor = ActivitySensor(domain=DomainKind.CORE0)
        narrow = sensor.reading({ActivityEvent.VECTOR_128_INSTRUCTION: 100.0})
        wide = sensor.reading({ActivityEvent.VECTOR_512_INSTRUCTION: 100.0})
        assert wide > narrow

    def test_monitor_power_weighted_aggregation(self):
        monitor = ActivityMonitor()
        monitor.record(DomainKind.CORE0, 1.0)
        monitor.record(DomainKind.GFX, 0.0)
        ar = monitor.package_application_ratio(
            {DomainKind.CORE0: 3.0, DomainKind.GFX: 1.0}
        )
        assert ar == pytest.approx(0.75)

    def test_monitor_zero_power_is_zero_ar(self):
        monitor = ActivityMonitor()
        assert monitor.package_application_ratio({DomainKind.CORE0: 0.0}) == 0.0

    def test_duplicate_sensor_rejected(self):
        with pytest.raises(ConfigurationError):
            ActivityMonitor(
                [ActivitySensor(domain=DomainKind.CORE0), ActivitySensor(domain=DomainKind.CORE0)]
            )


class TestPmu:
    def _active_pmu(self, graphics=False):
        pmu = PowerManagementUnit(tdp_w=18.0)
        pmu.update_domain(DomainKind.CORE0, True, 3.0, 0.6)
        pmu.update_domain(DomainKind.CORE1, True, 3.0, 0.6)
        if graphics:
            pmu.update_domain(DomainKind.GFX, True, 5.0, 0.7)
        return pmu

    def test_workload_classification_multi_thread(self):
        assert self._active_pmu().classify_workload() is WorkloadType.CPU_MULTI_THREAD

    def test_workload_classification_graphics_takes_priority(self):
        assert self._active_pmu(graphics=True).classify_workload() is WorkloadType.GRAPHICS

    def test_workload_classification_single_thread_and_idle(self):
        pmu = PowerManagementUnit(tdp_w=18.0)
        assert pmu.classify_workload() is WorkloadType.IDLE
        pmu.update_domain(DomainKind.CORE0, True, 3.0, 0.6)
        assert pmu.classify_workload() is WorkloadType.CPU_SINGLE_THREAD

    def test_telemetry_contains_algorithm_inputs(self):
        pmu = self._active_pmu()
        telemetry = pmu.telemetry()
        assert telemetry.tdp_w == pytest.approx(18.0)
        assert telemetry.workload_type is WorkloadType.CPU_MULTI_THREAD
        assert 0.0 < telemetry.application_ratio <= 1.0
        assert telemetry.power_state is PackageCState.C0

    def test_c6_entry_and_exit_latencies(self):
        pmu = PowerManagementUnit(tdp_w=18.0)
        entry = pmu.enter_power_state(PackageCState.C6)
        assert entry == pytest.approx(PACKAGE_C6_ENTRY_LATENCY_S)
        exit_latency = pmu.enter_power_state(PackageCState.C0)
        assert exit_latency == pytest.approx(PACKAGE_C6_EXIT_LATENCY_S)
        assert pmu.time_s == pytest.approx(entry + exit_latency)

    def test_same_state_transition_is_free(self):
        pmu = PowerManagementUnit(tdp_w=18.0)
        assert pmu.enter_power_state(PackageCState.C0) == 0.0

    def test_ctdp_reconfiguration(self):
        pmu = PowerManagementUnit(tdp_w=18.0)
        pmu.configure_tdp(25.0)
        assert pmu.tdp_w == pytest.approx(25.0)

    def test_require_idle_compute_guard(self):
        pmu = self._active_pmu()
        with pytest.raises(ModelDomainError):
            pmu.require_idle_compute()
        pmu.enter_power_state(PackageCState.C6)
        pmu.require_idle_compute()  # no exception once in package C6
