"""Executor semantics: identical results, deterministic order, cache merge.

The parallel backends must be *invisible* in every observable except wall
clock: the same :class:`Study` produces the same :class:`ResultSet` through
every backend, chunk completion order must not leak into row order, and the
shared :class:`PdnSpot` cache must end a parallel run exactly as warm -- with
exactly the same hit/miss accounting -- as a serial run would leave it.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.executor import (
    EXECUTORS,
    MIN_COLUMNAR_CHUNK,
    ProcessExecutor,
    SerialExecutor,
    make_executor,
    shard,
)
from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study
from repro.obs.metrics import METRICS
from repro.pdn.base import OperatingConditions
from repro.power.domains import WorkloadType
from repro.util.errors import ConfigurationError

BACKENDS = sorted(EXECUTORS)


def _grid_study() -> Study:
    """A small but heterogeneous grid: active + idle + parameter overrides."""
    return (
        Study.builder("executor-grid")
        .tdps(4.0, 18.0)
        .application_ratios(0.4, 0.56)
        .power_states("C2", "C8")
        .parameter_grid({}, {"ivr_tolerance_band_v": 0.010})
        .build()
    )


def _active_point(tdp_w: float = 4.0) -> OperatingConditions:
    return OperatingConditions.for_active_workload(
        tdp_w, 0.56, WorkloadType.CPU_MULTI_THREAD
    )


# --------------------------------------------------------------------------- #
# Sharding
# --------------------------------------------------------------------------- #
class TestShard:
    def test_concatenation_is_input_and_sizes_balanced(self):
        items = list(range(13))
        chunks = shard(items, 4)
        assert [x for chunk in chunks for x in chunk] == items
        sizes = {len(chunk) for chunk in chunks}
        assert max(sizes) - min(sizes) <= 1

    def test_is_deterministic(self):
        items = list(range(50))
        assert shard(items, 7) == shard(items, 7)

    def test_more_shards_than_items(self):
        assert shard([1, 2], 8) == [[1], [2]]

    def test_empty_items(self):
        assert shard([], 4) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ConfigurationError):
            shard([1], 0)


# --------------------------------------------------------------------------- #
# Backend equivalence
# --------------------------------------------------------------------------- #
class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        spot = PdnSpot()
        resultset = spot.run(_grid_study())
        return resultset, spot.cache_info()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_run_matches_serial(self, backend, serial_reference):
        reference, reference_info = serial_reference
        spot = PdnSpot()
        resultset = spot.run(_grid_study(), executor=backend, jobs=4)
        assert resultset == reference
        info = spot.cache_info()
        assert (info.hits, info.misses, info.size) == (
            reference_info.hits,
            reference_info.misses,
            reference_info.size,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_warm_run_is_all_hits_and_equal(self, backend, serial_reference):
        reference, _ = serial_reference
        spot = PdnSpot()
        spot.run(_grid_study())  # warm serially
        cold_info = spot.cache_info()
        resultset = spot.run(_grid_study(), executor=backend, jobs=4)
        assert resultset == reference
        warm_info = spot.cache_info()
        assert warm_info.misses == cold_info.misses  # nothing recomputed
        assert warm_info.hits == cold_info.hits + len(reference)
        assert warm_info.size == cold_info.size

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cache_disabled_matches_cached_results(self, backend, serial_reference):
        reference, _ = serial_reference
        spot = PdnSpot(enable_cache=False)
        resultset = spot.run(_grid_study(), executor=backend, jobs=3)
        assert resultset == reference
        assert spot.cache_info().size == 0

    def test_executor_instance_and_jobs_shortcut(self, serial_reference):
        reference, _ = serial_reference
        assert PdnSpot().run(_grid_study(), executor=SerialExecutor(jobs=2)) == reference
        assert PdnSpot().run(_grid_study(), jobs=2) == reference  # process shortcut


# --------------------------------------------------------------------------- #
# Deterministic reassembly under out-of-order completion
# --------------------------------------------------------------------------- #
class _ReversedCompletionExecutor(SerialExecutor):
    """Completes chunks strictly in reverse submission order."""

    name = "reversed"

    def _run_chunks(self, spot, chunks):
        results = [
            (index, [spot.evaluate_uncached(*unit) for unit in chunk])
            for index, chunk in enumerate(chunks)
        ]
        yield from reversed(results)


class TestDeterministicOrdering:
    def test_reversed_chunk_completion_preserves_grid_order(self):
        study = _grid_study()
        reference = PdnSpot().run(study)
        spot = PdnSpot()
        resultset = spot.run(study, executor=_ReversedCompletionExecutor(jobs=5))
        assert resultset == reference
        assert resultset.to_records() == reference.to_records()

    def test_batch_order_follows_points_not_completion(self):
        points = [("LDO", _active_point()), ("IVR", _active_point()), ("MBVR", _active_point(18.0))]
        spot = PdnSpot()
        evaluations = spot.evaluate_units(
            [(name, conditions, ()) for name, conditions in points],
            executor=_ReversedCompletionExecutor(jobs=3),
        )
        assert [e.pdn_name for e in evaluations] == ["LDO", "IVR", "MBVR"]


# --------------------------------------------------------------------------- #
# Cache merge-back
# --------------------------------------------------------------------------- #
class TestCacheMergeBack:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parallel_cold_run_warms_the_shared_cache(self, backend):
        study = _grid_study()
        spot = PdnSpot()
        spot.run(study, executor=backend, jobs=4)
        info = spot.cache_info()
        assert info.misses == info.size > 0
        # A follow-up serial evaluation of any grid point is a pure hit.
        spot.evaluate("IVR", _active_point())
        after = spot.cache_info()
        assert after.misses == info.misses
        assert after.hits == info.hits + 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicate_points_counted_like_serial(self, backend):
        # Serial accounting for 3 identical points: 1 miss + 2 hits.
        units = [("IVR", _active_point(), ())] * 3
        serial_spot = PdnSpot()
        serial_spot.evaluate_units(units)
        serial_info = serial_spot.cache_info()
        spot = PdnSpot()
        evaluations = spot.evaluate_units(units, executor=backend, jobs=2)
        info = spot.cache_info()
        assert (info.hits, info.misses, info.size) == (
            serial_info.hits,
            serial_info.misses,
            serial_info.size,
        )
        assert len({e.etee for e in evaluations}) == 1

    def test_merged_entries_are_caller_isolated(self):
        # Merged-back masters are shared with every later hit, so a caller
        # must not be able to change them at all.
        spot = PdnSpot()
        first = spot.evaluate_units(
            [("IVR", _active_point(), ())], executor="serial", jobs=2
        )[0]
        with pytest.raises((AttributeError, TypeError)):
            first.rail_voltages_v.clear()
        with pytest.raises(TypeError):
            first.rail_voltages_v["V_IN"] = 0.0
        second = spot.evaluate("IVR", _active_point())
        assert second is first
        assert second.rail_voltages_v


# --------------------------------------------------------------------------- #
# Worker metrics across the fork boundary
# --------------------------------------------------------------------------- #
class TestWorkerMetrics:
    def test_process_workers_ship_their_columnar_counts(self):
        """Columnar blocks run in the workers; their counts reach the parent."""
        study = (
            Study.builder("worker-metrics")
            .tdps(4.0, 10.0, 18.0, 36.0, 50.0)
            .application_ratios(0.4, 0.5, 0.6, 0.7, 0.8)
            .workload_types(WorkloadType.CPU_SINGLE_THREAD, WorkloadType.CPU_MULTI_THREAD,
                            WorkloadType.GRAPHICS)
            .build()
        )
        assert len(study) * 5 > 2 * MIN_COLUMNAR_CHUNK
        block_units = METRICS.counter("engine.columnar.block_units")
        chunks = METRICS.counter("executor.chunks")

        def run(**dispatch):
            before = (block_units.value, chunks.value)
            resultset = PdnSpot().run(study, **dispatch)
            return resultset, block_units.value - before[0], chunks.value - before[1]

        serial, serial_units, serial_chunks = run()
        parallel, parallel_units, parallel_chunks = run(executor="process", jobs=2)
        assert parallel == serial
        assert (serial_chunks, parallel_chunks) == (1, 2)
        assert parallel_units == serial_units == len(study) * 5


# --------------------------------------------------------------------------- #
# Concurrent evaluate accounting (the CacheInfo lock)
# --------------------------------------------------------------------------- #
class TestThreadSafeAccounting:
    def test_concurrent_lookups_lose_no_counter_updates(self):
        spot = PdnSpot()
        conditions = _active_point()
        spot.evaluate("IVR", conditions)  # 1 miss, cache warm
        calls_per_thread, thread_count = 50, 8
        barrier = threading.Barrier(thread_count)

        def hammer():
            barrier.wait()
            for _ in range(calls_per_thread):
                spot.evaluate("IVR", conditions)

        threads = [threading.Thread(target=hammer) for _ in range(thread_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        info = spot.cache_info()
        assert info.hits == calls_per_thread * thread_count
        assert info.misses == 1
        assert info.size == 1


# --------------------------------------------------------------------------- #
# The factory
# --------------------------------------------------------------------------- #
class TestMakeExecutor:
    def test_none_is_engine_default(self):
        assert make_executor(None) is None
        assert make_executor(None, jobs=1) is None

    def test_jobs_over_one_selects_process(self):
        backend = make_executor(None, jobs=3)
        assert isinstance(backend, ProcessExecutor)
        assert backend.jobs == 3

    @pytest.mark.parametrize("name", BACKENDS)
    def test_names_resolve(self, name):
        backend = make_executor(name, jobs=2)
        assert backend.name == name
        assert backend.jobs == 2

    def test_instance_passes_through(self):
        backend = SerialExecutor(jobs=2)
        assert make_executor(backend) is backend
        assert make_executor(backend, jobs=2) is backend

    def test_conflicting_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            make_executor(SerialExecutor(jobs=2), jobs=3)

    def test_defaulted_instance_adopts_explicit_jobs(self):
        # ProcessExecutor() leaves jobs to the machine default; an explicit
        # jobs= must win regardless of the CPU count, never conflict.
        backend = make_executor(ProcessExecutor(), jobs=7)
        assert isinstance(backend, ProcessExecutor)
        assert backend.jobs == 7

    def test_defaulted_subclass_adopts_jobs_keeping_state(self):
        # Adoption must preserve subclass state (copy, not reconstruction).
        class TaggedExecutor(SerialExecutor):
            def __init__(self, tag, jobs=None):
                super().__init__(jobs=jobs)
                self.tag = tag

        backend = make_executor(TaggedExecutor("audit"), jobs=5)
        assert backend.jobs == 5
        assert backend.tag == "audit"

    @pytest.mark.parametrize("name", ["distributed", "thread"])
    def test_unknown_name_rejected(self, name):
        with pytest.raises(ConfigurationError, match="choose from: process, serial"):
            make_executor(name)

    @pytest.mark.parametrize("jobs", [0, -1, 2.5, "2", True])
    def test_invalid_jobs_rejected(self, jobs):
        with pytest.raises(ConfigurationError, match="jobs"):
            make_executor("serial", jobs=jobs)
        with pytest.raises(ConfigurationError, match="jobs"):
            make_executor(None, jobs=jobs)
        with pytest.raises(ConfigurationError, match="jobs"):
            SerialExecutor(jobs=jobs)
        with pytest.raises(ConfigurationError, match="jobs"):
            PdnSpot().evaluate_units([], executor="serial", jobs=jobs)

    def test_executor_must_be_known_type(self):
        with pytest.raises(ConfigurationError):
            make_executor(42)  # type: ignore[arg-type]

    def test_empty_units_short_circuit(self):
        assert SerialExecutor().evaluate_units(PdnSpot(), []) == []
