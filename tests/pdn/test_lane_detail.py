"""Columnar evaluations build their loss breakdown and rail map on first read.

A columnar lane carries the four scalars a sweep row needs; ``breakdown``
and ``rail_voltages_v`` are built from the block's shared columns the first
time either is read, then kept.  None of that may show: the lane must equal
the scalar oracle, stay read-only, pickle to the state an eagerly built
evaluation pickles to, and give every thread that races the first read the
same objects.
"""

import dataclasses
import pickle
import random
import sys
import threading

import pytest

from repro.core.hybrid_vr import PdnMode
from repro.pdn import columnar
from repro.pdn.base import OperatingConditions, PdnEvaluation
from repro.pdn.losses import LossBreakdown
from repro.pdn.registry import available_pdns, build_pdn
from repro.power.domains import WorkloadType
from repro.power.power_states import BATTERY_LIFE_STATES

WORKLOAD_TYPES = (
    WorkloadType.CPU_SINGLE_THREAD,
    WorkloadType.CPU_MULTI_THREAD,
    WorkloadType.GRAPHICS,
)

#: A PdnEvaluation pickled (protocol 5) before lanes built their detail
#: lazily: the state layout every disk entry written so far holds.
LEGACY_PICKLE = bytes.fromhex(
    "800595ae010000000000008c0e726570726f2e70646e2e62617365948c0d50646e4576"
    "616c756174696f6e9493942981947d94288c0870646e5f6e616d65948c03495652948c"
    "0f6e6f6d696e616c5f706f7765725f77944740240000000000008c0e737570706c795f"
    "706f7765725f77944740290000000000008c09627265616b646f776e948c1072657072"
    "6f2e70646e2e6c6f73736573948c0d4c6f7373427265616b646f776e9493942981947d"
    "94288c0c6f6e5f636869705f76725f7794473ff00000000000008c0d6f66665f636869"
    "705f76725f7794473fe80000000000008c14636f6e64756374696f6e5f636f6d707574"
    "655f7794473fd00000000000008c13636f6e64756374696f6e5f756e636f72655f7794"
    "473fc00000000000008c076f746865725f7794473fd80000000000008c0c7261696c5f"
    "64657461696c73947d94288c04565f494e944740000000000000008c05636f72653094"
    "473fe00000000000007575628c14636869705f696e7075745f63757272656e745f6194"
    "4740228000000000008c0f7261696c5f766f6c74616765735f76947d94286816473ffc"
    "cccccccccccd6817473fee6666666666667575622e"
)


def assert_read_only(evaluation):
    with pytest.raises(dataclasses.FrozenInstanceError):
        evaluation.supply_power_w = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        evaluation.breakdown.other_w = 0.0
    with pytest.raises(TypeError):
        evaluation.rail_voltages_v["V_IN"] = 0.0
    with pytest.raises(TypeError):
        evaluation.breakdown.rail_details["V_IN"] = 0.0


def grid(seed: int, count: int = 24):
    """Seeded active and package-C-state points, a few sharing load sets."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        tdp_w = rng.choice((4.0, 9.5, 18.0, 33.0, 50.0))
        if rng.random() < 0.7:
            points.append(
                OperatingConditions.for_active_workload(
                    tdp_w, rng.uniform(0.4, 0.8), rng.choice(WORKLOAD_TYPES)
                )
            )
        else:
            points.append(
                OperatingConditions.for_power_state(tdp_w, rng.choice(BATTERY_LIFE_STATES))
            )
    return points


def cases():
    """(label, pdn, mode) for every PDN and both forced FlexWatts modes."""
    out = [(name, name, None) for name in available_pdns()]
    out += [(f"FlexWatts[{mode.value}]", "FlexWatts", mode) for mode in PdnMode]
    return out


def scalar(pdn, point, mode):
    return pdn.evaluate(point) if mode is None else pdn.evaluate_in_mode(point, mode)


def is_unbuilt(evaluation) -> bool:
    return "breakdown" not in evaluation.__dict__ and "rail_voltages_v" not in evaluation.__dict__


@pytest.mark.parametrize("label,name,mode", cases(), ids=[case[0] for case in cases()])
@pytest.mark.parametrize("seed", [3, 11])
def test_detail_equals_the_scalar_oracle(label, name, mode, seed):
    pdn = build_pdn(name)
    points = grid(seed)
    lanes = columnar.evaluate_columns(pdn, points, mode=mode)
    assert all(is_unbuilt(lane) for lane in lanes)
    for lane, point in zip(lanes, points):
        oracle = scalar(pdn, point, mode)
        assert lane.pdn_name == oracle.pdn_name
        assert lane.supply_power_w == oracle.supply_power_w
        assert lane.chip_input_current_a == oracle.chip_input_current_a
        assert is_unbuilt(lane)  # the scalars never build the detail
        assert lane.breakdown == oracle.breakdown
        assert dict(lane.rail_voltages_v) == dict(oracle.rail_voltages_v)
        assert lane == oracle
        assert repr(lane) == repr(pickle.loads(pickle.dumps(lane)))
        assert_read_only(lane)


@pytest.mark.parametrize("read", ["breakdown", "rail_voltages_v"])
def test_either_field_builds_both_once(read):
    lane = columnar.evaluate_columns(build_pdn("FlexWatts"), grid(5))[0]
    first = getattr(lane, read)
    assert not is_unbuilt(lane)
    assert "_block" not in lane.__dict__ and "_lane" not in lane.__dict__
    breakdown, rails = lane.breakdown, lane.rail_voltages_v
    assert getattr(lane, read) is first
    assert lane.breakdown is breakdown and lane.rail_voltages_v is rails


def test_unknown_attributes_still_raise():
    lane = columnar.evaluate_columns(build_pdn("IVR"), grid(1))[0]
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        lane.missing  # noqa: B018 - the read is the test
    assert not hasattr(lane, "_block_of_someone_else")
    assert is_unbuilt(lane)


def test_concurrent_first_read_sees_one_result():
    pdn = build_pdn("FlexWatts")
    points = grid(8, count=40)
    lanes = columnar.evaluate_columns(pdn, points)
    oracles = [pdn.evaluate(point) for point in points]
    barrier = threading.Barrier(8)
    seen = []
    lock = threading.Lock()

    def reader(reverse):
        barrier.wait(timeout=10)
        views = {}
        for lane in lanes[::-1] if reverse else lanes:
            if reverse:  # half the threads build through the other field
                rails = lane.rail_voltages_v
                breakdown = lane.breakdown
            else:
                breakdown = lane.breakdown
                rails = lane.rail_voltages_v
            views[id(lane)] = (breakdown, rails)
        with lock:
            seen.append(views)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i % 2,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    for lane, oracle in zip(lanes, oracles):
        breakdown, rails = lane.breakdown, lane.rail_voltages_v
        for views in seen:
            assert views[id(lane)][0] is breakdown
            assert views[id(lane)][1] is rails
        assert lane == oracle
        assert_read_only(lane)


@pytest.mark.parametrize("name", available_pdns())
def test_pickle_matches_an_eagerly_built_evaluation(name):
    lanes = columnar.evaluate_columns(build_pdn(name), grid(13, count=6))
    blobs = [pickle.dumps(lane, protocol=pickle.HIGHEST_PROTOCOL) for lane in lanes]
    for lane, blob in zip(lanes, blobs):
        eager = PdnEvaluation(
            pdn_name=lane.pdn_name,
            nominal_power_w=lane.nominal_power_w,
            supply_power_w=lane.supply_power_w,
            breakdown=lane.breakdown,
            chip_input_current_a=lane.chip_input_current_a,
            rail_voltages_v=lane.rail_voltages_v,
        )
        assert blob == pickle.dumps(eager, protocol=pickle.HIGHEST_PROTOCOL)
        assert blob == pickle.dumps(lane, protocol=pickle.HIGHEST_PROTOCOL)
        restored = pickle.loads(blob)
        assert restored == lane
        assert list(restored.rail_voltages_v) == list(lane.rail_voltages_v)
        assert list(restored.breakdown.rail_details) == list(lane.breakdown.rail_details)
        assert_read_only(restored)


def test_legacy_pickle_loads_read_only_and_re_pickles_identically():
    evaluation = pickle.loads(LEGACY_PICKLE)
    assert evaluation == PdnEvaluation(
        "IVR",
        10.0,
        12.5,
        LossBreakdown(
            on_chip_vr_w=1.0,
            off_chip_vr_w=0.75,
            conduction_compute_w=0.25,
            conduction_uncore_w=0.125,
            other_w=0.375,
            rail_details={"V_IN": 2.0, "core0": 0.5},
        ),
        9.25,
        {"V_IN": 1.8, "core0": 0.95},
    )
    assert evaluation.etee == 10.0 / 12.5
    assert_read_only(evaluation)
    assert pickle.dumps(evaluation, protocol=pickle.HIGHEST_PROTOCOL) == LEGACY_PICKLE
