"""Which way each PDN's ETEE moves when one technology parameter moves.

Every field of :class:`PdnTechnologyParameters` belongs to the models that
use it: a wider tolerance band, a heavier load-line or a leakier regulator
costs efficiency in those models and leaves every other model bit-identical.
"""

import dataclasses

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.pdn.base import OperatingConditions
from repro.pdn.registry import available_pdns, build_pdn
from repro.power.domains import WorkloadType
from repro.power.parameters import default_parameters


MID = OperatingConditions.for_active_workload(18.0, 0.56, WorkloadType.CPU_MULTI_THREAD)
HIGH = OperatingConditions.for_active_workload(50.0, 0.56, WorkloadType.CPU_MULTI_THREAD)

_HALF_GATE_IMPEDANCE = {
    kind: 0.5 * ohm for kind, ohm in default_parameters().power_gate_impedance_ohm.items()
}

#: (parameter, moved value, operating point, {PDN: expected direction}).
#: ``-1`` means the move costs that PDN efficiency, ``+1`` that it helps, and
#: ``0`` that the PDN does not use the parameter at all.
DIRECTIONS = (
    ("ivr_tolerance_band_v", 0.030, MID, {"IVR": -1, "I+MBVR": -1, "MBVR": 0, "LDO": 0}),
    ("mbvr_tolerance_band_v", 0.030, MID, {"MBVR": -1, "IVR": 0, "LDO": 0}),
    ("ldo_tolerance_band_v", 0.030, MID, {"LDO": -1, "IVR": 0, "MBVR": 0}),
    ("ldo_current_efficiency", 0.996, MID, {"LDO": +1, "IVR": 0, "MBVR": 0}),
    ("ldo_input_loadline_ohm", 2.5e-3, HIGH, {"LDO": -1, "IVR": 0, "MBVR": 0}),
    ("ivr_input_loadline_ohm", 2.0e-3, HIGH, {"IVR": -1, "I+MBVR": -1, "MBVR": 0, "LDO": 0}),
    (
        "flexwatts_loadline_scale",
        1.5,
        HIGH,
        {"FlexWatts": -1, "IVR": 0, "MBVR": 0, "LDO": 0, "I+MBVR": 0},
    ),
    # A higher battery voltage means a larger step-down in every board VR.
    ("supply_voltage_v", 12.0, MID, {name: -1 for name in available_pdns()}),
    # Only MBVR puts its compute domains behind on-chip power gates.
    (
        "power_gate_impedance_ohm",
        _HALF_GATE_IMPEDANCE,
        MID,
        {"MBVR": +1, "IVR": 0, "LDO": 0, "I+MBVR": 0, "FlexWatts": 0},
    ),
)

_NAMES = {-1: "hurts", 0: "leaves", +1: "helps"}


def _cases():
    for parameter, value, conditions, expectations in DIRECTIONS:
        for pdn_name, direction in expectations.items():
            yield pytest.param(
                parameter,
                value,
                conditions,
                pdn_name,
                direction,
                id=f"{parameter}-{_NAMES[direction]}-{pdn_name}",
            )


@pytest.mark.parametrize("parameter,value,conditions,pdn_name,direction", _cases())
def test_parameter_moves_only_the_models_that_use_it(
    parameter, value, conditions, pdn_name, direction
):
    baseline = build_pdn(pdn_name).evaluate(conditions).etee
    moved = build_pdn(
        pdn_name, default_parameters().with_overrides(**{parameter: value})
    ).evaluate(conditions).etee
    if direction == 0:
        assert moved == baseline
    elif direction < 0:
        assert moved < baseline
    else:
        assert moved > baseline


_SCALAR_PARAMETERS = tuple(
    field.name
    for field in dataclasses.fields(default_parameters())
    if isinstance(getattr(default_parameters(), field.name), float)
)


@pytest.fixture(scope="module")
def spot():
    return PdnSpot(enable_cache=False)


@pytest.mark.parametrize("pdn_name", available_pdns())
def test_overriding_a_parameter_with_its_default_changes_nothing(spot, pdn_name):
    baseline = spot.evaluate(pdn_name, MID).etee
    defaults = default_parameters()
    for parameter in _SCALAR_PARAMETERS:
        overrides = ((parameter, getattr(defaults, parameter)),)
        assert spot.evaluate(pdn_name, MID, overrides).etee == baseline, parameter


@pytest.mark.parametrize("parameter", ["ivr_tolerance_band_v", "leakage_exponent"])
def test_small_parameter_moves_have_small_effects(spot, parameter):
    # Within the published ranges (a few percent of parameter movement) the
    # ETEE moves by well under one point.
    moved = 1.05 * getattr(default_parameters(), parameter)
    for pdn_name in available_pdns():
        baseline = spot.evaluate(pdn_name, MID).etee
        perturbed = spot.evaluate(pdn_name, MID, ((parameter, moved),)).etee
        assert abs(perturbed - baseline) < 0.01, pdn_name
