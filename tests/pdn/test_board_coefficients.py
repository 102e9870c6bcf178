"""The columnar core's board-regulator coefficients and undefined power states.

The scalar ``_board_phase_configs`` and the columnar kernels read one
per-state coefficient table.  The kernel computes the coefficients as one
array formula per call, so every lane must be bit-equal to the scalar
:class:`PhaseConfiguration` of its ``(Iccmax, power state)`` pair.  A lane in
a power state the table does not define (PS2) fails the batch with the
scalar model's own ``ConfigurationError`` for that lane.
"""


import numpy as np
import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.pdn import columnar
from repro.pdn.base import OperatingConditions, active_loads
from repro.pdn.common import MIN_BOARD_VR_ICCMAX_A
from repro.pdn.registry import build_pdn
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.util.errors import ConfigurationError
from repro.vr.efficiency_curves import _board_phase_configs
from repro.vr.switching import VRPowerState

DEFINED_STATES = (VRPowerState.PS0, VRPowerState.PS1, VRPowerState.PS3, VRPowerState.PS4)

#: Below 1 A (the size clamp), at the board minimum, and typical ratings.
ICCMAX_A = (0.05, 0.5, 0.999, MIN_BOARD_VR_ICCMAX_A, 1.5, 7.3, 23.0, 40.0, 131.7)

#: The rail whose regulator each PDN's scalar model asks for PS2 first.
FIRST_RAIL_ASKED = {
    "IVR": "V_IN",
    "MBVR": "V_Cores",
    "LDO": "V_IN",
    "I+MBVR": "V_IN",
    "FlexWatts": "V_IN",
}


def conditions_in(state: VRPowerState, tdp_w: float = 18.0) -> OperatingConditions:
    workload = WorkloadType.CPU_MULTI_THREAD
    return OperatingConditions(
        tdp_w=tdp_w,
        application_ratio=0.56,
        workload_type=workload,
        power_state=PackageCState.C0,
        loads=active_loads(tdp_w, workload),
        board_vr_state=state,
    )


def test_kernel_coefficients_bit_equal_scalar_configs():
    lanes = [(iccmax, state) for iccmax in ICCMAX_A for state in DEFINED_STATES]
    batch = columnar.ConditionsBatch.from_conditions(
        [conditions_in(state) for _, state in lanes]
    )
    iccmax = np.array([iccmax for iccmax, _ in lanes])
    failed = np.zeros(len(lanes), dtype=bool)
    coeffs = columnar._switching_coefficients(batch, iccmax, failed)
    assert not failed.any()
    got = zip(
        coeffs.quiescent_w.tolist(),
        coeffs.switching.tolist(),
        coeffs.conduction.tolist(),
        coeffs.drive.tolist(),
    )
    for (iccmax_a, state), row in zip(lanes, got):
        config = _board_phase_configs(iccmax_a)[state]
        expected = (
            config.quiescent_w,
            config.switching_w_per_v_a,
            config.conduction_ohm,
            config.drive_w_per_a,
        )
        assert [value.hex() for value in row] == [value.hex() for value in expected], (
            iccmax_a,
            state,
        )


def test_undefined_state_marks_only_its_lane():
    batch = columnar.ConditionsBatch.from_conditions(
        [conditions_in(VRPowerState.PS0), conditions_in(VRPowerState.PS2)]
    )
    failed = np.zeros(2, dtype=bool)
    columnar._switching_coefficients(batch, np.array([10.0, 10.0]), failed)
    assert failed.tolist() == [False, True]


def test_undefined_state_raises_fallback():
    # No fallback is left: the batch raises the scalar model's own error.
    conditions = [conditions_in(VRPowerState.PS0), conditions_in(VRPowerState.PS2)]
    with pytest.raises(ConfigurationError, match="does not define power state PS2"):
        columnar.evaluate_columns(build_pdn("MBVR"), conditions)


@pytest.mark.parametrize("pdn_name", sorted(FIRST_RAIL_ASKED))
def test_one_undefined_state_lane_raises_the_model_error(pdn_name):
    conditions = [conditions_in(VRPowerState.PS0, tdp_w) for tdp_w in (4.0, 18.0, 50.0)]
    conditions.insert(1, conditions_in(VRPowerState.PS2))
    pdn = build_pdn(pdn_name)
    model_error = (
        f"regulator '{FIRST_RAIL_ASKED[pdn_name]}' does not define power state PS2"
    )
    with pytest.raises(ConfigurationError) as raw:
        columnar.evaluate_columns(pdn, conditions)
    assert str(raw.value) == model_error
    with pytest.raises(ConfigurationError) as scalar:
        pdn.evaluate(conditions[1])
    assert str(scalar.value) == model_error

    spot = PdnSpot(enable_cache=False)
    units = [(pdn_name, c, ()) for c in conditions]
    with pytest.raises(ConfigurationError) as batch:
        spot.evaluate_units(units)
    assert str(batch.value) == (
        f"{pdn_name} at TDP 18 W, AR 0.56, workload cpu_multi_thread, "
        f"power state C0: {model_error}"
    )
    assert type(batch.value.__cause__) is ConfigurationError
