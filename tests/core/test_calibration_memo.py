"""The Algorithm-1 tables are calibrated once per parameter set and grid.

:func:`repro.core.calibration.build_default_predictor` keeps a process-wide
memo: every exact, unpatched FlexWatts instance -- in any engine -- shares
one sealed predictor per ``(parameter set, grid)``, while a patched
instance calibrates afresh through its patch and leaves the memo alone.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.core import calibration
from repro.core.calibration import build_default_predictor, calibrate_mode_curves
from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_predictor import EteeCurveSet, ModePredictor
from repro.obs.metrics import METRICS
from repro.pdn.base import OperatingConditions
from repro.power.domains import WorkloadType
from repro.power.parameters import default_parameters
from repro.power.power_states import PackageCState
from repro.sim.study import SimEngine, SimStudy
from repro.util.errors import ConfigurationError

CALIBRATIONS = METRICS.counter("flexwatts.calibrations")

#: A small grid for tests that calibrate many parameter sets.
SMALL_GRID = {"tdp_grid_w": (4.0, 50.0), "ar_grid": (0.4, 0.8)}


@pytest.fixture
def empty_memo():
    """An empty predictor memo for the test; the old entries come back after."""
    with calibration._PREDICTORS_LOCK:
        saved = dict(calibration._PREDICTORS)
        calibration._PREDICTORS.clear()
    try:
        yield calibration._PREDICTORS
    finally:
        with calibration._PREDICTORS_LOCK:
            calibration._PREDICTORS.clear()
            calibration._PREDICTORS.update(saved)


def _flexwatts_study(name: str, overrides=None) -> SimStudy:
    builder = (
        SimStudy.builder(name)
        .scenarios("duty-cycled-background")
        .tdps(4.0, 50.0)
        .pdns("FlexWatts")
    )
    if overrides is not None:
        builder = builder.parameter_grid(overrides)
    return builder.build()


def _etee_hexes(curves: EteeCurveSet):
    """Every stored ETEE of a curve set, bit for bit."""
    active = {
        (kind, tdp_w): tuple(value.hex() for value in curve.ys)
        for kind, stored in curves.active_curves.items()
        for tdp_w, curve in stored
    }
    states = {state: etee.hex() for state, etee in curves.power_state_etee.items()}
    return active, states


class TestSharedCalibration:
    def test_engines_share_one_calibration(self, empty_memo):
        before = CALIBRATIONS.value
        first = PdnSpot().pdn("FlexWatts").predictor
        second = PdnSpot().pdn("FlexWatts").predictor
        engine = SimEngine(enable_cache=False)
        engine.run(_flexwatts_study("shared-calibration"))
        assert CALIBRATIONS.value - before == 2  # one per mode, once
        assert second is first
        assert engine.spot.pdn("FlexWatts").predictor is first
        assert list(empty_memo.values()) == [first]

    def test_override_set_calibrates_once_across_engines(self, empty_memo):
        study = _flexwatts_study("override-calibration", {"ivr_tolerance_band_v": 0.01})
        before = CALIBRATIONS.value
        results = [SimEngine().run(study) for _ in range(2)]
        assert CALIBRATIONS.value - before == 2
        assert results[0] == results[1]
        assert len(empty_memo) == 1

    def test_memoised_curves_equal_a_direct_calibration(self, empty_memo):
        predictor = FlexWattsPdn().predictor
        for mode, curves in (
            (PdnMode.IVR_MODE, predictor.ivr_curves),
            (PdnMode.LDO_MODE, predictor.ldo_curves),
        ):
            direct = calibrate_mode_curves(FlexWattsPdn(), mode)
            assert _etee_hexes(curves) == _etee_hexes(direct)

    def test_predictor_argument_bypasses_calibration(self, empty_memo):
        predictor = FlexWattsPdn().predictor
        before = CALIBRATIONS.value
        assert FlexWattsPdn(predictor=predictor).predictor is predictor
        assert CALIBRATIONS.value == before


class TestPatchedInstances:
    def test_subclass_calibrates_fresh(self, empty_memo):
        class Variant(FlexWattsPdn):
            pass

        shared = FlexWattsPdn().predictor
        before = CALIBRATIONS.value
        assert Variant().predictor is not shared
        assert CALIBRATIONS.value - before == 2
        assert len(empty_memo) == 1


class TestMemoBound:
    def test_filling_past_the_bound_keeps_answering(self, empty_memo, monkeypatch):
        monkeypatch.setattr(calibration, "_PREDICTORS_BOUND", 2)
        telemetry = OperatingConditions.for_active_workload(
            tdp_w=18.0, application_ratio=0.56, workload_type=WorkloadType.GRAPHICS
        )
        bands = (0.005, 0.010, 0.015, 0.020, 0.005)
        for band in bands:
            parameters = default_parameters().with_overrides(ivr_tolerance_band_v=band)
            memoised = build_default_predictor(FlexWattsPdn(parameters), **SMALL_GRID)
            assert len(empty_memo) <= 2
            fresh = ModePredictor(
                ivr_curves=calibrate_mode_curves(
                    FlexWattsPdn(parameters), PdnMode.IVR_MODE, **SMALL_GRID
                ),
                ldo_curves=calibrate_mode_curves(
                    FlexWattsPdn(parameters), PdnMode.LDO_MODE, **SMALL_GRID
                ),
            )
            assert _etee_hexes(memoised.ivr_curves) == _etee_hexes(fresh.ivr_curves)
            assert _etee_hexes(memoised.ldo_curves) == _etee_hexes(fresh.ldo_curves)
            assert memoised.predict_modes([telemetry]) == fresh.predict_modes([telemetry])

    def test_grid_is_part_of_the_key(self, empty_memo):
        default = FlexWattsPdn().predictor
        small = build_default_predictor(FlexWattsPdn(), **SMALL_GRID)
        assert small is not default
        assert small.ivr_curves.stored_tdps_w(WorkloadType.GRAPHICS) == [4.0, 50.0]
        assert len(empty_memo) == 2


class TestRacingThreads:
    def test_racing_builders_share_the_first_stored_predictor(self, empty_memo):
        bands = (0.005, 0.010, 0.015)
        workers = 4 * len(bands)
        barrier = threading.Barrier(workers)
        got = [None] * workers

        def build(slot: int) -> None:
            parameters = default_parameters().with_overrides(
                ivr_tolerance_band_v=bands[slot % len(bands)]
            )
            barrier.wait(timeout=30)
            got[slot] = build_default_predictor(FlexWattsPdn(parameters), **SMALL_GRID)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(empty_memo) == len(bands)
        for offset in range(len(bands)):
            shared = {id(predictor) for predictor in got[offset::len(bands)]}
            assert len(shared) == 1
            assert got[offset] in empty_memo.values()


class TestSealedCurveSets:
    def test_calibrated_curve_sets_reject_additions(self, flexwatts):
        curves = flexwatts.predictor.ivr_curves
        with pytest.raises(ConfigurationError, match=r"FlexWatts\[ivr_mode\]"):
            curves.add_active_curve(WorkloadType.GRAPHICS, 12.0, (0.4, 0.8), (0.7, 0.8))
        with pytest.raises(ConfigurationError, match=r"FlexWatts\[ivr_mode\]"):
            curves.add_power_state_etee(PackageCState.C8, 0.5)
        assert 12.0 not in curves.stored_tdps_w(WorkloadType.GRAPHICS)

    def test_hand_built_curve_sets_stay_mutable_until_sealed(self):
        curves = EteeCurveSet()
        curves.add_active_curve(WorkloadType.GRAPHICS, 4.0, (0.4, 0.8), (0.7, 0.8))
        curves.add_power_state_etee(PackageCState.C8, 0.5)
        curves.seal("hand-built")
        with pytest.raises(ConfigurationError, match="hand-built"):
            curves.add_power_state_etee(PackageCState.C2, 0.6)
        assert curves.power_state_etee == {PackageCState.C8: 0.5}
