"""The batched Algorithm-1 predictor matches the per-point one, lane for lane.

``ModePredictor.predict_modes`` (and ``FlexWattsPdn.predict_modes`` over
it) replace one ``predict`` call per point with one NumPy pass per
(workload type, power state) group.  The per-point path stays the
reference: every batch below must select exactly the modes ``predict``
selects, including clamped TDPs and ARs, breakpoints, idle and
idle-classified points and exact ties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.calibration import DEFAULT_AR_GRID, DEFAULT_TDP_GRID_W
from repro.core.flexwatts import FlexWattsPdn
from repro.core.hybrid_vr import PdnMode
from repro.core.mode_predictor import EteeCurveSet, ModePredictor
from repro.pdn.base import OperatingConditions
from repro.power.domains import WorkloadType
from repro.power.parameters import default_parameters
from repro.power.power_states import BATTERY_LIFE_STATES, PackageCState
from repro.soc.pmu import PmuTelemetry
from repro.util.interpolate import LinearTable1D, StackedTables1D

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ACTIVE_TYPES = [
    WorkloadType.CPU_SINGLE_THREAD,
    WorkloadType.CPU_MULTI_THREAD,
    WorkloadType.GRAPHICS,
]

#: TDPs on stored curves, between them and outside the stored range.
tdps = st.one_of(
    st.sampled_from(DEFAULT_TDP_GRID_W),
    st.floats(min_value=0.5, max_value=120.0),
)
#: ARs on breakpoints, at the ends, and anywhere in [0, 1].
ratios = st.one_of(
    st.sampled_from(tuple(DEFAULT_AR_GRID) + (0.0, 1.0)),
    st.floats(min_value=0.0, max_value=1.0),
)
telemetry = st.builds(
    PmuTelemetry,
    tdp_w=tdps,
    application_ratio=ratios,
    workload_type=st.sampled_from(list(WorkloadType)),
    power_state=st.sampled_from(list(PackageCState)),
)


@pytest.fixture(scope="module")
def predictors():
    """The calibrated predictor of the default and of an override variant."""
    overridden = default_parameters().with_overrides(ivr_tolerance_band_v=0.010)
    return {
        "default": FlexWattsPdn().predictor,
        "overrides": FlexWattsPdn(parameters=overridden).predictor,
    }


def _check(predictor: ModePredictor, points):
    """Assert the batch equals the per-point reference."""
    expected = [predictor.predict(point) for point in points]
    assert predictor.predict_modes(points) == expected
    return expected


class TestLaneForLane:
    @SETTINGS
    @given(points=st.lists(telemetry, max_size=80))
    def test_random_telemetry(self, predictors, points):
        for predictor in predictors.values():
            _check(predictor, points)

    def test_every_stored_breakpoint_and_end(self, predictors):
        points = [
            PmuTelemetry(tdp, ratio, workload_type, PackageCState.C0)
            for workload_type in ACTIVE_TYPES
            for tdp in (1.0, *DEFAULT_TDP_GRID_W, 120.0)
            for ratio in (0.0, 0.1, *DEFAULT_AR_GRID, 0.9, 1.0)
        ]
        for predictor in predictors.values():
            modes = _check(predictor, points)
            assert set(modes) == {PdnMode.IVR_MODE, PdnMode.LDO_MODE}

    def test_idle_states_and_idle_classified_c0(self, predictors):
        points = [
            PmuTelemetry(18.0, 0.5, workload_type, state)
            for state in PackageCState
            for workload_type in WorkloadType
        ]
        assert any(
            not point.power_state.is_idle and point.workload_type is WorkloadType.IDLE
            for point in points
        )
        for predictor in predictors.values():
            _check(predictor, points)

    def test_operating_conditions_through_flexwatts(self):
        flexwatts = FlexWattsPdn()
        points = [
            OperatingConditions.for_active_workload(tdp, ratio, workload_type)
            for workload_type in ACTIVE_TYPES
            for tdp in (3.0, 4.0, 9.0, 18.0, 42.0, 50.0, 64.0)
            for ratio in (0.3, 0.4, 0.56, 0.75, 0.8, 1.0)
        ] + [
            OperatingConditions.for_power_state(tdp, state)
            for tdp in (4.0, 18.0)
            for state in BATTERY_LIFE_STATES
        ]
        expected = [flexwatts.predict_mode(point) for point in points]
        assert flexwatts.predict_modes(points) == expected
        assert _check(flexwatts.predictor, points) == expected

    def test_empty_batch(self, predictors):
        assert predictors["default"].predict_modes([]) == []


class TestTiesAndCustomPredictors:
    def _tie_predictor(self) -> ModePredictor:
        """IVR flat at 0.8, LDO falling through it: an exact tie at AR 0.6."""
        ivr, ldo = EteeCurveSet(), EteeCurveSet()
        for tdp in (4.0, 18.0):
            ivr.add_active_curve(WorkloadType.GRAPHICS, tdp, (0.4, 0.6, 0.8), (0.8,) * 3)
            ldo.add_active_curve(WorkloadType.GRAPHICS, tdp, (0.4, 0.6, 0.8), (0.9, 0.8, 0.7))
        ivr.add_power_state_etee(PackageCState.C2, 0.7)
        ldo.add_power_state_etee(PackageCState.C2, 0.7)
        return ModePredictor(ivr, ldo)

    def test_exact_ties_go_to_ivr_mode(self):
        predictor = self._tie_predictor()
        points = [
            PmuTelemetry(tdp, ratio, WorkloadType.GRAPHICS, PackageCState.C0)
            for tdp in (2.0, 4.0, 11.0, 18.0, 30.0)
            for ratio in (0.5, 0.6, 0.7)
        ] + [PmuTelemetry(18.0, 0.5, WorkloadType.IDLE, PackageCState.C2)]
        modes = _check(predictor, points)
        ties = [
            mode for point, mode in zip(points, modes)
            if point.application_ratio == 0.6 or point.power_state is PackageCState.C2
        ]
        assert ties and set(ties) == {PdnMode.IVR_MODE}

    def test_predictor_without_batch_path_is_asked_per_point(self):
        class Pinned:
            def predict(self, telemetry):
                return PdnMode.LDO_MODE

        flexwatts = FlexWattsPdn(predictor=Pinned())
        points = [OperatingConditions.for_active_workload(50.0, 0.8, ACTIVE_TYPES[1])]
        assert flexwatts.predict_modes(points) == [PdnMode.LDO_MODE]


class TestStackedTables:
    @SETTINGS
    @given(
        # Breakpoints on a 0.1 grid: spans never underflow into inf slopes.
        tables=st.lists(
            st.tuples(
                st.lists(st.integers(-100, 100), min_size=2, max_size=8, unique=True),
                st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=8, max_size=8),
                st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        queries=st.lists(st.floats(min_value=-20.0, max_value=20.0), max_size=40),
        data=st.data(),
    )
    def test_matches_scalar_call(self, tables, queries, data):
        tables = [
            LinearTable1D(sorted(x / 10 for x in xs), ys[: len(xs)], clamp_ends=clamp_ends)
            for xs, ys, clamp_ends in tables
        ]
        # Every breakpoint of every table exactly, plus the random queries.
        queries = queries + [x for table in tables for x in table.xs]
        index = data.draw(
            st.lists(
                st.integers(0, len(tables) - 1),
                min_size=len(queries),
                max_size=len(queries),
            )
        )
        values = StackedTables1D(tables).evaluate(
            np.array(index, dtype=np.intp), np.array(queries, dtype=np.float64)
        )
        assert values.tolist() == [tables[i](x) for i, x in zip(index, queries)]


class TestCurveSetStacking:
    def test_curves_with_different_breakpoints(self):
        ivr, ldo = EteeCurveSet(), EteeCurveSet()
        kind = WorkloadType.CPU_MULTI_THREAD
        ivr.add_active_curve(kind, 4.0, (0.4, 0.8), (0.70, 0.80))
        ivr.add_active_curve(kind, 18.0, (0.3, 0.5, 0.6, 0.9), (0.72, 0.74, 0.79, 0.83))
        ldo.add_active_curve(kind, 10.0, (0.2, 0.45, 0.7), (0.83, 0.76, 0.71))
        predictor = ModePredictor(ivr, ldo)
        points = [
            PmuTelemetry(tdp, ratio, kind, PackageCState.C0)
            for tdp in (2.0, 4.0, 7.0, 10.0, 18.0, 30.0)
            for ratio in (0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        ]
        modes = _check(predictor, points)
        assert set(modes) == {PdnMode.IVR_MODE, PdnMode.LDO_MODE}

    def test_curve_added_after_a_batch_is_seen(self):
        ivr, ldo = EteeCurveSet(), EteeCurveSet()
        kind = WorkloadType.GRAPHICS
        ivr.add_active_curve(kind, 4.0, (0.4, 0.8), (0.80, 0.80))
        ldo.add_active_curve(kind, 4.0, (0.4, 0.8), (0.75, 0.75))
        predictor = ModePredictor(ivr, ldo)
        points = [PmuTelemetry(30.0, 0.6, kind, PackageCState.C0)]
        assert _check(predictor, points) == [PdnMode.IVR_MODE]
        ldo.add_active_curve(kind, 30.0, (0.4, 0.8), (0.90, 0.90))
        assert _check(predictor, points) == [PdnMode.LDO_MODE]
