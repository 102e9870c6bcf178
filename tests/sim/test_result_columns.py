"""Columnar simulation results are indistinguishable from eagerly built ones.

:meth:`IntervalSimulator.replay` hands its result the phase columns and
builds no :class:`PhaseRecord`; ``phase_records`` is built on first read.
Over every scenario x {4, 18, 50} W x 5 PDNs, through both the batch pass
(:meth:`SimEngine.evaluate_columns`) and the per-unit oracle
(:meth:`SimEngine.evaluate_uncached`), each result must pickle to the bytes
of an eagerly built twin -- before and after its records are first read --
and compare, hash and print like it.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import sys
import threading

import pytest

from repro.sim.adapters import phases_to_resultset, simulation_record
from repro.sim.engine import PhaseRecord, SimulationResult
from repro.sim.study import SimEngine, SimPoint
from repro.workloads.scenarios import available_scenarios

PDN_NAMES = ("IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts")
TDPS_W = (4.0, 18.0, 50.0)
PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)

UNITS = [
    (name, SimPoint(scenario=scenario, tdp_w=tdp_w, seed=11), ())
    for scenario in available_scenarios()
    for tdp_w in TDPS_W
    for name in PDN_NAMES
]


def _batch():
    return SimEngine().evaluate_columns(UNITS)


def _per_unit():
    engine = SimEngine(enable_cache=False)
    return [engine.evaluate_uncached(*unit) for unit in UNITS]


def _eager(result: SimulationResult) -> SimulationResult:
    """``result`` rebuilt through the public constructor, record by record."""
    records = tuple(
        PhaseRecord(
            record.phase_index, record.power_state, record.workload_type,
            record.duration_s, record.supply_power_w, record.energy_j,
            record.pdn_mode, record.mode_switched,
        )
        for record in result.phase_records
    )
    return SimulationResult(
        result.pdn_name, result.trace_name, result.tdp_w, records,
        result.mode_switch_count, result.mode_switch_time_s,
        result.mode_switch_energy_j,
    )


@pytest.fixture(scope="module", params=["evaluate_columns", "evaluate_uncached"])
def path(request):
    """``(build, results, twins)``: the path's build function, one run of it, and
    per unit an eagerly built twin from a separate run."""
    build = _batch if request.param == "evaluate_columns" else _per_unit
    return build, build(), [_eager(result) for result in build()]


@pytest.fixture
def runs(path):
    """``(result, eager twin)`` pairs; earlier tests may have read the records."""
    _, results, twins = path
    return list(zip(results, twins))


def test_the_grid_covers_every_scenario_and_pdn():
    assert len(UNITS) == len(available_scenarios()) * len(TDPS_W) * len(PDN_NAMES)


class TestPickles:
    def test_bytes_match_before_and_after_the_first_read(self, path):
        build, _, twins = path
        for result, eager in zip(build(), twins):
            assert "phase_records" not in result.__dict__
            expected = [pickle.dumps(eager, protocol=p) for p in PROTOCOLS]
            assert [pickle.dumps(result, protocol=p) for p in PROTOCOLS] == expected
            assert "phase_records" not in result.__dict__  # built, not kept
            assert result.phase_records is result.phase_records
            assert [pickle.dumps(result, protocol=p) for p in PROTOCOLS] == expected

    def test_a_loaded_result_is_eager_and_equal(self, runs):
        for result, eager in runs[:10]:
            loaded = pickle.loads(pickle.dumps(result))
            assert "_columns" not in loaded.__dict__
            assert loaded == eager
            assert loaded.total_energy_j == result.total_energy_j

    def test_legacy_list_pickle_loads_as_a_tuple(self, runs):
        result, eager = runs[-1]
        legacy = object.__new__(SimulationResult)
        legacy.__dict__.update(
            {name: getattr(result, name) for name in result.__dataclass_fields__},
            phase_records=list(result.phase_records),
        )
        blob = pickle.dumps(legacy)
        assert blob != pickle.dumps(eager)  # the records really went as a list
        loaded = pickle.loads(blob)
        assert isinstance(loaded.phase_records, tuple)
        assert loaded == eager


class TestValueSemantics:
    def test_equality_hash_and_repr(self, runs):
        for result, eager in runs:
            assert hash(result) == hash(eager)
            assert result == eager and eager == result
            assert repr(result) == repr(eager)

    def test_summaries_match(self, runs):
        for result, eager in runs:
            assert simulation_record(result) == simulation_record(eager)

    def test_phase_rows_match(self, runs):
        for result, eager in runs[::7]:
            assert (
                phases_to_resultset(result, {"seed": 11}).to_json()
                == phases_to_resultset(eager, {"seed": 11}).to_json()
            )

    def test_replace_and_copies(self, runs):
        result, eager = runs[-1]
        trimmed = dataclasses.replace(result, phase_records=eager.phase_records[:3])
        assert trimmed.phase_records == eager.phase_records[:3]
        assert trimmed.total_time_s == (
            sum(r.duration_s for r in eager.phase_records[:3]) + result.mode_switch_time_s
        )
        assert dataclasses.replace(result, tdp_w=1.0).phase_records == eager.phase_records
        assert copy.copy(result) == copy.deepcopy(result) == eager

    def test_results_stay_frozen(self, runs):
        result, _ = runs[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.phase_records = ()
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            result.nonexistent  # noqa: B018 - the lookup is the test


class TestSharedMaster:
    def test_racing_threads_get_one_tuple(self):
        engine = SimEngine()
        engine.evaluate_units(UNITS[:40])
        masters = [engine.evaluate(*unit) for unit in UNITS[:40]]
        assert all("phase_records" not in master.__dict__ for master in masters)
        barrier = threading.Barrier(8, timeout=30.0)
        seen = [[] for _ in range(8)]

        def read(slot: int) -> None:
            barrier.wait()
            seen[slot].extend(master.phase_records for master in masters)

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-build
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for index, master in enumerate(masters):
            assert all(reads[index] is master.phase_records for reads in seen)
            assert master is engine.evaluate(*UNITS[index])
