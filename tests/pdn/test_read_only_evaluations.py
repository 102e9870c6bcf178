"""Evaluations are read-only, and operating points are keyed once.

The engines hand one cached :class:`PdnEvaluation` to every caller, so an
evaluation must be immutable through its public surface -- whichever path
built it (scalar model, columnar kernel, pickle from a worker or the disk
tier).  The memoised :func:`conditions_key` must behave exactly like the
plain tuple it replaced (equality, hash, canonical disk form) and must never
carry its hash across a pickle boundary.
"""

import dataclasses
import pickle

import pytest

from repro.cache import canonical_key
from repro.pdn import columnar
from repro.pdn.base import ConditionsKey, OperatingConditions, conditions_key
from repro.pdn.registry import available_pdns, build_pdn
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState

POINTS = (
    OperatingConditions.for_active_workload(18.0, 0.56, WorkloadType.CPU_MULTI_THREAD),
    OperatingConditions.for_active_workload(4.0, 0.4, WorkloadType.GRAPHICS),
    OperatingConditions.for_power_state(4.0, PackageCState.C8),
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


@pytest.mark.parametrize("name", available_pdns())
def test_scalar_and_columnar_evaluations_are_read_only(name):
    pdn = build_pdn(name)
    scalar = [pdn.evaluate(point) for point in POINTS]
    vector = columnar.evaluate_columns(pdn, POINTS)
    assert vector == scalar
    for evaluation in (*scalar, *vector):
        assert_read_only(evaluation)


@pytest.mark.parametrize("name", available_pdns())
def test_pickle_round_trip_stays_equal_and_read_only(name):
    evaluation = build_pdn(name).evaluate(POINTS[0])
    restored = pickle.loads(pickle.dumps(evaluation))
    assert restored == evaluation
    assert dict(restored.breakdown.rail_details) == dict(evaluation.breakdown.rail_details)
    assert_read_only(restored)


def test_model_inputs_are_copied_not_aliased():
    from repro.pdn.losses import LossBreakdown

    details = {"V_IN": 1.0}
    breakdown = LossBreakdown(other_w=0.5, rail_details=details)
    details["V_IN"] = 2.0
    assert breakdown.rail_details["V_IN"] == 1.0


class TestConditionsKey:
    def test_behaves_like_the_plain_tuple(self):
        point = POINTS[0]
        key = conditions_key(point)
        plain = (
            point.tdp_w,
            point.application_ratio,
            point.workload_type,
            point.power_state,
            point.board_vr_state,
            tuple(point.loads),
        )
        assert isinstance(key, ConditionsKey)
        assert key == plain and plain == key
        assert hash(key) == hash(plain)
        assert canonical_key(key) == canonical_key(plain)
        assert {plain: 1}[key] == 1

    def test_built_once_per_conditions_object(self):
        point = OperatingConditions.for_power_state(18.0, PackageCState.C6)
        assert conditions_key(point) is conditions_key(point)
        twin = OperatingConditions.for_power_state(18.0, PackageCState.C6)
        assert conditions_key(twin) == conditions_key(point)

    def test_list_loads_are_not_memoised(self):
        loads = list(POINTS[0].loads)
        point = dataclasses.replace(POINTS[0], loads=loads)
        first = conditions_key(point)
        assert conditions_key(point) is not first
        assert first == conditions_key(POINTS[0])

    def test_hash_never_crosses_a_pickle_boundary(self):
        point = OperatingConditions.for_active_workload(
            9.0, 0.7, WorkloadType.CPU_SINGLE_THREAD
        )
        key = conditions_key(point)
        assert b"_hash" not in pickle.dumps(key)
        restored = pickle.loads(pickle.dumps(key))
        assert type(restored) is ConditionsKey
        assert restored == key and hash(restored) == hash(tuple(key))
        shipped = pickle.loads(pickle.dumps(point))
        assert shipped == point
        assert conditions_key(shipped) == key
        assert hash(conditions_key(shipped)) == hash(tuple(key))

    def test_concurrent_first_use_agrees(self):
        # The memo is filled without a lock: racing threads may each build
        # the key, and every one of them must be equal with the same hash.
        import sys
        import threading

        points = [
            OperatingConditions.for_active_workload(tdp, 0.5, WorkloadType.GRAPHICS)
            for tdp in (4.0, 7.0, 12.0, 18.0, 25.0, 50.0)
        ]
        barrier = threading.Barrier(8)
        seen = []
        lock = threading.Lock()

        def worker():
            barrier.wait(timeout=10)
            keys = [conditions_key(point) for point in points]
            with lock:
                seen.append(keys)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        for keys in seen:
            assert keys == seen[0]
            assert [hash(key) for key in keys] == [hash(key) for key in seen[0]]
        assert all(conditions_key(point) is conditions_key(point) for point in points)
