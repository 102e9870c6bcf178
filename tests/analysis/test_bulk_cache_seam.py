"""The bulk two-tier cache seam keeps the per-unit accounting.

``evaluate_units`` looks up every distinct key in one
``cache_lookup_many`` call and installs each computed chunk in one
``cache_install_many`` call.  The reference it must match is the per-unit
path: ``engine.evaluate`` called once per unit, each call a batch of one
(one lookup, one install on a miss, duplicates served as hits).  Results,
``cache_info()``, ``RunStats``, the cache counters and the simulation disk
store's own counters must come out the same; only the number of counter
ticks drops.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study, study_units
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import METRICS
from repro.pdn.registry import available_pdns
from repro.power.domains import WorkloadType
from repro.power.power_states import PackageCState
from repro.serve.protocol import build_sweep_study
from repro.sim.study import SimEngine, SimStudy

CACHE_COUNTERS = (
    "cache.memory.hits",
    "cache.disk.hits",
    "cache.lookup.misses",
    "cache.installs",
)


def _fig7_study() -> Study:
    """The fig7-scale grid: 16 TDPs x 20 ARs x 3 workloads + 3 states, 5 PDNs."""
    tdps = [4.0 + 46.0 * index / 15 for index in range(16)]
    ars = [0.4 + 0.4 * index / 19 for index in range(20)]
    return build_sweep_study(
        tdps,
        ars,
        [WorkloadType.CPU_SINGLE_THREAD, WorkloadType.CPU_MULTI_THREAD,
         WorkloadType.GRAPHICS],
        [PackageCState.C2, PackageCState.C6, PackageCState.C8],
    )


def _small_study() -> Study:
    return (
        Study.builder("bulk-seam")
        .tdps(4.0, 18.0, 50.0)
        .application_ratios(0.4, 0.56, 0.8)
        .power_states("C2", "C8")
        .build()
    )


def _override_study() -> Study:
    return (
        Study.builder("bulk-seam-overrides")
        .tdps(4.0, 18.0)
        .application_ratios(0.4, 0.7)
        .parameter_grid({}, {"ivr_tolerance_band_v": 0.010})
        .build()
    )


def _units(study: Study) -> List[tuple]:
    return study_units(study, tuple(available_pdns()))


def _duplicate_heavy_units() -> List[tuple]:
    units = _units(_small_study()) * 3
    random.Random(7).shuffle(units)
    return units


def _counts() -> Dict[str, int]:
    values = METRICS.snapshot()["counters"]
    return {name: values.get(name, 0) for name in CACHE_COUNTERS}


def _delta(before: Dict[str, int]) -> Dict[str, int]:
    after = _counts()
    return {name: after[name] - before[name] for name in CACHE_COUNTERS}


def _sim_units() -> List[tuple]:
    study = SimStudy.over_scenarios(
        ["duty-cycled-background", "race-to-idle"], tdps_w=[4.0, 50.0],
        name="bulk-seam-sim",
    )
    return [(name, point, point.overrides)
            for point in study.points for name in available_pdns()]


def _duplicate_heavy_sim_units() -> List[tuple]:
    units = _sim_units() * 3
    random.Random(7).shuffle(units)
    return units


def _bulk(spot, units):
    before = _counts()
    results = spot.evaluate_units(units)
    return results, _delta(before)


def _per_unit(spot, units):
    before = _counts()
    results = [spot.evaluate(name, point, overrides) for name, point, overrides in units]
    return results, _delta(before)


class TestFig7Accounting:
    def test_cold_then_warm_counts(self):
        study = _fig7_study()
        spot = PdnSpot()
        before = _counts()
        cold = spot.run(study)
        assert _delta(before) == {
            "cache.memory.hits": 0,
            "cache.disk.hits": 0,
            "cache.lookup.misses": 5040,
            "cache.installs": 5040,
        }
        stats = cold.run_stats
        assert (stats.units, stats.cache_hits, stats.cache_misses) == (5040, 0, 5040)
        info = spot.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 5040, 5040)

        before = _counts()
        warm = spot.run(study)
        assert warm == cold
        assert _delta(before) == {
            "cache.memory.hits": 5040,
            "cache.disk.hits": 0,
            "cache.lookup.misses": 0,
            "cache.installs": 0,
        }
        stats = warm.run_stats
        assert (stats.units, stats.cache_hits, stats.cache_misses) == (5040, 5040, 0)
        info = spot.cache_info()
        assert (info.hits, info.misses, info.size) == (5040, 5040, 5040)


class TestMemoryTierMatchesPerUnit:
    @pytest.mark.parametrize(
        "make_units",
        [
            lambda: _units(_small_study()),
            _duplicate_heavy_units,
            lambda: _units(_override_study()),
        ],
        ids=["grid", "duplicate-heavy", "overrides"],
    )
    def test_cold_and_warm_passes(self, make_units):
        units = make_units()
        bulk, reference = PdnSpot(), PdnSpot()
        for _ in range(2):  # cold, then a warm rerun on the same engines
            results, counted = _bulk(bulk, units)
            expected, expected_counted = _per_unit(reference, units)
            assert results == expected
            assert counted == expected_counted
            assert bulk.cache_info() == reference.cache_info()

    def test_duplicates_share_one_evaluation(self):
        units = _duplicate_heavy_units()
        spot = PdnSpot()
        results = spot.evaluate_units(units)
        by_key: Dict[tuple, object] = {}
        for unit, result in zip(units, results):
            assert by_key.setdefault(spot.cache_key(*unit), result) is result
        info = spot.cache_info()
        assert info.misses == info.size == len(by_key)
        assert info.hits == len(units) - len(by_key)

    def test_run_stats_match_per_unit_deltas(self):
        study = _override_study()
        spot = PdnSpot()
        stats = spot.run(study).run_stats
        reference = PdnSpot()
        _per_unit(reference, _units(study))
        info = reference.cache_info()
        assert (stats.cache_hits, stats.cache_misses) == (info.hits, info.misses)


class TestTicksPerCall:
    def test_cache_counters_tick_o1_times_per_call(self, monkeypatch):
        watched = {id(METRICS.counter(name)): name for name in CACHE_COUNTERS}
        ticks: List[tuple] = []
        original = obs_metrics.Counter.inc

        def counting_inc(counter, amount=1):
            name = watched.get(id(counter))
            if name is not None:
                ticks.append((name, amount))
            original(counter, amount)

        monkeypatch.setattr(obs_metrics.Counter, "inc", counting_inc)
        per_call = []
        for units in (_units(_small_study()), _duplicate_heavy_units(),
                      _units(_fig7_study())):
            spot = PdnSpot()
            for _ in range(2):  # cold, then warm
                ticks.clear()
                spot.evaluate_units(units)
                per_call.append(len(ticks))
                assert sum(amount for name, amount in ticks
                           if name != "cache.installs") == len(units)
        # Cold: one miss tick and one install tick (plus one memory-hit tick
        # for duplicates); warm: one memory-hit tick -- whatever the size.
        assert max(per_call) <= 3


class TestScalarEngineMatchesPerUnit:
    def test_duplicates_cold_then_warm(self):
        """A ``columnar=False`` engine batches through the same dispatch path."""
        units = _duplicate_heavy_units()
        bulk = PdnSpot(columnar=False)
        reference = PdnSpot(columnar=False)
        chunks = METRICS.counter("executor.chunks")
        passes = []
        for _ in range(2):  # cold, then memory-warm
            before = chunks.value
            results, counted = _bulk(bulk, units)
            passes.append((counted, chunks.value - before))
            expected, expected_counted = _per_unit(reference, units)
            assert results == expected
            assert results == PdnSpot(enable_cache=False).evaluate_units(units)
            assert counted == expected_counted
            assert bulk.cache_info() == reference.cache_info()
        (cold, cold_chunks), (memory_warm, memory_chunks) = passes
        assert cold["cache.lookup.misses"] > 0
        assert cold_chunks == 1  # one serial chunk for the misses
        assert memory_warm["cache.memory.hits"] == len(units)
        assert memory_chunks == 0  # the memory-warm pass computed nothing


class TestSimEngineMatchesPerUnit:
    """The simulation engine rides the same seam; its disk address differs.

    Only the engine's own accounting is compared: a simulation batch runs
    its phases through an inner analytic batch, whose memo traffic (and so
    the process-wide memory counters) depends on how the units were grouped.
    """

    @pytest.mark.parametrize(
        "make_units", [_sim_units, _duplicate_heavy_sim_units],
        ids=["grid", "duplicate-heavy"],
    )
    def test_cold_and_warm_passes(self, make_units):
        units = make_units()
        bulk, reference = SimEngine(), SimEngine()
        for _ in range(2):  # cold, then a warm rerun on the same engines
            results = bulk.evaluate_units(units)
            expected = [reference.evaluate(*unit) for unit in units]
            assert results == expected
            assert bulk.cache_info() == reference.cache_info()

    def test_disk_hits_promote_and_count_like_per_unit(self, tmp_path):
        units = _sim_units()
        roots = [tmp_path / "bulk", tmp_path / "per-unit"]
        for root in roots:
            SimEngine(disk_cache=root).evaluate_units(units[::2])
        bulk = SimEngine(disk_cache=roots[0])
        reference = SimEngine(disk_cache=roots[1])
        results, counted = _bulk(bulk, units)
        expected, expected_counted = _per_unit(reference, units)
        assert results == expected
        assert counted["cache.disk.hits"] == expected_counted["cache.disk.hits"]
        assert counted["cache.disk.hits"] == len(units[::2])
        assert bulk.cache_info() == reference.cache_info()
        assert bulk.disk_cache.stats() == reference.disk_cache.stats()
        # A disk hit was promoted: looking it up again is a memory hit.
        hits = bulk.cache_info().hits
        before = _counts()
        assert bulk.evaluate(*units[0]) == results[0]
        assert bulk.cache_info().hits == hits + 1
        assert _delta(before)["cache.disk.hits"] == 0


class TestDiskTierMatchesPerUnit:
    """The simulation engine's disk tier counts each key once per lookup.

    The per-unit path reads a duplicated key from disk once and then from
    memory; the bulk path looks each distinct key up once.  The disk
    store's counters must agree.
    """

    def test_disk_hits_promote_and_count_like_per_unit(self, tmp_path):
        units = _duplicate_heavy_sim_units()
        distinct = list(dict.fromkeys(units))
        roots = [tmp_path / "bulk", tmp_path / "per-unit"]
        for root in roots:
            SimEngine(disk_cache=root).evaluate_units(distinct[::2])
        bulk = SimEngine(disk_cache=roots[0])
        reference = SimEngine(disk_cache=roots[1])
        results, counted = _bulk(bulk, units)
        expected, expected_counted = _per_unit(reference, units)
        assert results == expected
        assert counted["cache.disk.hits"] == expected_counted["cache.disk.hits"]
        assert counted["cache.disk.hits"] == len(distinct[::2])
        assert bulk.cache_info() == reference.cache_info()
        stats = bulk.disk_cache.stats()
        assert stats == reference.disk_cache.stats()
        assert stats.hits + stats.misses == len(distinct)  # once per key

    def test_wrong_payload_entry_heals_like_per_unit(self, tmp_path):
        units = _sim_units()
        roots = [tmp_path / "bulk", tmp_path / "per-unit"]
        foreign = units[0]
        for root in roots:
            owner = SimEngine(disk_cache=root)
            owner.evaluate_units(units[::2])
            owner.disk_cache.put_many(
                [owner._disk_key(owner.cache_key(*foreign))], [{"not": "a result"}]
            )
        bulk = SimEngine(disk_cache=roots[0])
        reference = SimEngine(disk_cache=roots[1])
        results, counted = _bulk(bulk, units)
        expected, expected_counted = _per_unit(reference, units)
        assert results == expected
        assert counted["cache.disk.hits"] == expected_counted["cache.disk.hits"]
        assert counted["cache.disk.hits"] == len(units[::2]) - 1
        assert bulk.cache_info() == reference.cache_info()
        stats = bulk.disk_cache.stats()
        assert stats == reference.disk_cache.stats()
        assert stats.corrupt == 1
        # The healed row was rewritten: a fresh engine now serves it.
        assert SimEngine(disk_cache=roots[0]).evaluate(*foreign) == results[0]
