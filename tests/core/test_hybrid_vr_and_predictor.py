"""Tests for the mode predictor and its calibration."""

import pytest

from repro.core.calibration import build_default_predictor, calibrate_mode_curves
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_predictor import EteeCurveSet, ModePredictor
from repro.core.runtime_estimator import RuntimeInputEstimator
from repro.pdn.base import OperatingConditions
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.soc.pmu import PmuTelemetry, PowerManagementUnit
from repro.util.errors import ConfigurationError, ModelDomainError


class TestEteeCurveSet:
    def _curves(self):
        curves = EteeCurveSet()
        curves.add_active_curve(
            WorkloadType.CPU_MULTI_THREAD, 4.0, (0.4, 0.8), (0.70, 0.72)
        )
        curves.add_active_curve(
            WorkloadType.CPU_MULTI_THREAD, 50.0, (0.4, 0.8), (0.74, 0.76)
        )
        curves.add_power_state_etee(PackageCState.C8, 0.80)
        return curves

    def test_exact_lookup(self):
        curves = self._curves()
        assert curves.etee(4.0, 0.4, WorkloadType.CPU_MULTI_THREAD, PackageCState.C0) == pytest.approx(0.70)

    def test_tdp_interpolation(self):
        curves = self._curves()
        mid = curves.etee(27.0, 0.4, WorkloadType.CPU_MULTI_THREAD, PackageCState.C0)
        assert 0.70 < mid < 0.74

    def test_tdp_clamping_outside_grid(self):
        curves = self._curves()
        assert curves.etee(100.0, 0.8, WorkloadType.CPU_MULTI_THREAD, PackageCState.C0) == pytest.approx(0.76)

    def test_power_state_lookup(self):
        curves = self._curves()
        assert curves.etee(18.0, 0.2, WorkloadType.IDLE, PackageCState.C8) == pytest.approx(0.80)

    def test_missing_workload_type_raises(self):
        with pytest.raises(ModelDomainError):
            self._curves().etee(18.0, 0.5, WorkloadType.GRAPHICS, PackageCState.C0)

    def test_stored_tdps(self):
        assert self._curves().stored_tdps_w(WorkloadType.CPU_MULTI_THREAD) == [4.0, 50.0]


class TestModePredictor:
    def _predictor(self):
        ivr = EteeCurveSet()
        ldo = EteeCurveSet()
        ivr.add_active_curve(WorkloadType.CPU_MULTI_THREAD, 4.0, (0.4, 0.8), (0.69, 0.70))
        ivr.add_active_curve(WorkloadType.CPU_MULTI_THREAD, 50.0, (0.4, 0.8), (0.75, 0.76))
        ldo.add_active_curve(WorkloadType.CPU_MULTI_THREAD, 4.0, (0.4, 0.8), (0.77, 0.78))
        ldo.add_active_curve(WorkloadType.CPU_MULTI_THREAD, 50.0, (0.4, 0.8), (0.70, 0.71))
        ivr.add_power_state_etee(PackageCState.C8, 0.68)
        ldo.add_power_state_etee(PackageCState.C8, 0.84)
        return ModePredictor(ivr, ldo)

    def _telemetry(self, tdp_w, state=PackageCState.C0):
        return PmuTelemetry(
            tdp_w=tdp_w,
            application_ratio=0.56,
            workload_type=WorkloadType.CPU_MULTI_THREAD
            if state is PackageCState.C0
            else WorkloadType.IDLE,
            power_state=state,
        )

    def test_algorithm_1_selects_the_higher_etee_mode(self):
        predictor = self._predictor()
        assert predictor.predict(self._telemetry(4.0)) is PdnMode.LDO_MODE
        assert predictor.predict(self._telemetry(50.0)) is PdnMode.IVR_MODE

    def test_idle_telemetry_uses_power_state_curves(self):
        predictor = self._predictor()
        assert predictor.predict(self._telemetry(50.0, PackageCState.C8)) is PdnMode.LDO_MODE

    def test_predicted_gain_is_non_negative(self):
        predictor = self._predictor()
        assert predictor.predicted_gain(self._telemetry(4.0)) > 0.0

    def test_empty_curve_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            ModePredictor(EteeCurveSet(), EteeCurveSet())


class TestCalibration:
    def test_calibrated_curves_cover_the_requested_grid(self, flexwatts):
        curves = calibrate_mode_curves(
            flexwatts, PdnMode.IVR_MODE, tdp_grid_w=(4.0, 18.0), ar_grid=(0.4, 0.6, 0.8)
        )
        assert curves.stored_tdps_w(WorkloadType.CPU_MULTI_THREAD) == [4.0, 18.0]
        assert len(curves.power_state_etee) > 0

    def test_default_predictor_prefers_ldo_at_4w(self, flexwatts):
        predictor = build_default_predictor(flexwatts, tdp_grid_w=(4.0, 50.0), ar_grid=(0.4, 0.6, 0.8))
        telemetry = PmuTelemetry(4.0, 0.56, WorkloadType.CPU_MULTI_THREAD, PackageCState.C0)
        assert predictor.predict(telemetry) is PdnMode.LDO_MODE


class TestRuntimeEstimator:
    def test_estimate_from_conditions_is_exact(self):
        conditions = OperatingConditions.for_active_workload(
            18.0, 0.6, WorkloadType.GRAPHICS
        )
        telemetry = RuntimeInputEstimator.estimate_from_conditions(conditions)
        assert telemetry.tdp_w == pytest.approx(18.0)
        assert telemetry.application_ratio == pytest.approx(0.6)
        assert telemetry.workload_type is WorkloadType.GRAPHICS

    def test_estimate_requires_a_pmu(self):
        with pytest.raises(ConfigurationError):
            RuntimeInputEstimator().estimate()

    def test_estimate_from_live_pmu(self):
        from repro.power.domains import DomainKind

        pmu = PowerManagementUnit(tdp_w=25.0)
        pmu.update_domain(DomainKind.CORE0, True, 5.0, 0.7)
        telemetry = RuntimeInputEstimator(pmu).estimate()
        assert telemetry.tdp_w == pytest.approx(25.0)
        assert telemetry.workload_type is WorkloadType.CPU_SINGLE_THREAD
