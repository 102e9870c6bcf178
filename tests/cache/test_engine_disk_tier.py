"""The disk store as the second cache tier of the simulation engine.

Covers the cross-run warm-start contract: a cache directory populated by one
engine (or one process) makes an identical run in a *fresh* engine (or
another process) serve every simulation from disk, with results
bit-identical to a cache-less run, for the simulate and optimize paths;
concurrent writers leave a valid store behind; corrupt or foreign rows are
recomputed, never served.
"""

import logging
import sys
from concurrent import futures

import pytest

from repro.cache import DiskCache, cache_dir_summary
from repro.optimize import DesignSpace, run_optimization
from repro.sim.study import SimEngine, SimStudy, run_sim
from repro.util.errors import ConfigurationError


def sim_study() -> SimStudy:
    return SimStudy.over_scenarios(
        ["duty-cycled-background"], tdps_w=[18.0], name="disk-tier-sim"
    )


# --------------------------------------------------------------------------- #
# Worker functions for the cross-process tests (must be module-level to pickle)
# --------------------------------------------------------------------------- #
def _put_same_key(root: str, worker: int) -> int:
    """One process-pool worker writing the contested key."""
    cache = DiskCache(root, "race", "fp")
    return cache.put_many([("shared", "key")], [{"worker": worker, "value": 42.0}])


def _simulate_in_subprocess(cache_dir: str) -> str:
    """Run the simulation grid against a warm directory in another process."""
    engine = SimEngine(disk_cache=cache_dir)
    resultset = engine.run(sim_study())
    info = engine.cache_info()
    disk = engine.disk_cache.stats()
    assert info.misses == 0, "warm directory: nothing may be recomputed"
    assert disk.hits == disk.entries == info.hits
    return resultset.to_json()


class TestSimEngineDiskTier:
    def test_disk_requires_memo_cache(self, tmp_path):
        with pytest.raises(ConfigurationError, match="enable_cache"):
            SimEngine(enable_cache=False, disk_cache=tmp_path)

    def test_fresh_engine_replays_simulations_from_disk(self, tmp_path):
        study = sim_study()
        baseline = SimEngine().run(study)
        SimEngine(disk_cache=tmp_path).run(study)

        warm = SimEngine(disk_cache=tmp_path)
        served = warm.run(study)
        assert served == baseline
        info = warm.cache_info()
        disk = warm.disk_cache.stats()
        assert info.misses == 0
        assert disk.hits == disk.entries == info.hits
        # Only simulations persist: the phase-level analytic points do not.
        assert set(cache_dir_summary(tmp_path)) == {"sim"}

    def test_run_sim_cache_dir_round_trip(self, tmp_path):
        study = sim_study()
        baseline = run_sim(study)
        first = run_sim(study, cache_dir=tmp_path)
        second = run_sim(study, cache_dir=tmp_path)
        assert first == baseline
        assert second == baseline

    def test_run_sim_rejects_engine_plus_cache_dir(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cache_dir"):
            run_sim(sim_study(), engine=SimEngine(), cache_dir=tmp_path)

    def test_reregistered_scenario_generator_is_not_served_stale(self, tmp_path):
        """The disk address digests trace content, not just the scenario name."""
        from repro.power.power_states import PackageCState
        from repro.workloads.base import WorkloadPhase, WorkloadTrace
        from repro.workloads.scenarios import ScenarioSpec, register_scenario

        def make_trace(idle_fraction):
            def build(rng):
                return WorkloadTrace(
                    name="mutable",
                    phases=(
                        WorkloadPhase(
                            power_state=PackageCState.C0_MIN,
                            residency=1.0 - idle_fraction,
                            duration_s=(1.0 - idle_fraction),
                        ),
                        WorkloadPhase(
                            power_state=PackageCState.C8,
                            residency=idle_fraction,
                            duration_s=idle_fraction,
                        ),
                    ),
                )

            return build

        name = "test-mutable-scenario"
        register_scenario(
            ScenarioSpec(name, "v1", make_trace(0.5)), replace=True
        )
        try:
            study = SimStudy.over_scenarios([name], tdps_w=[18.0], name="mutable")
            SimEngine(disk_cache=tmp_path).run(study)  # populate under v1

            register_scenario(
                ScenarioSpec(name, "v2", make_trace(0.9)), replace=True
            )
            truth = SimEngine().run(study)  # what v2 must produce
            warm = SimEngine(disk_cache=tmp_path)
            assert warm.run(study) == truth  # recomputed, not v1 replayed
            assert warm.disk_cache.stats().hits == 0
        finally:
            from repro.workloads.scenarios import _SCENARIOS

            _SCENARIOS.pop(name, None)

    def test_cold_run_writes_through_once_per_batch(self, tmp_path):
        from repro.cache.store import _PUT_LATENCY

        engine = SimEngine(disk_cache=tmp_path)
        before = _PUT_LATENCY.count
        engine.run(sim_study())
        stats = engine.disk_cache.stats()
        assert stats.writes == engine.cache_info().misses == stats.entries == 5
        assert _PUT_LATENCY.count == before + 1  # one transaction for the grid

    def test_warm_run_reads_once_per_batch(self, tmp_path):
        from repro.cache.store import _GET_LATENCY

        study = sim_study()
        SimEngine(disk_cache=tmp_path).run(study)
        warm = SimEngine(disk_cache=tmp_path)
        before = _GET_LATENCY.count
        warm.run(study)
        assert warm.disk_cache.stats().hits == 5
        assert _GET_LATENCY.count == before + 1  # one query for the grid

    def test_prebuilt_store_instance_is_rejected(self, tmp_path):
        """Paths only: the engine builds its own store."""
        with pytest.raises(TypeError, match="DiskCache"):
            SimEngine(disk_cache=DiskCache(tmp_path, "sim", "fp"))

    def test_parameter_change_invalidates_directory(self, tmp_path):
        study = sim_study()
        SimEngine(disk_cache=tmp_path).run(study)
        perturbed_parameters = SimEngine().parameters.with_overrides(
            ivr_tolerance_band_v=0.015
        )
        truth = SimEngine(parameters=perturbed_parameters).run(study)
        perturbed = SimEngine(parameters=perturbed_parameters, disk_cache=tmp_path)
        assert perturbed.run(study) == truth
        assert perturbed.disk_cache.stats().hits == 0  # nothing stale served
        assert perturbed.cache_info().misses > 0

    def test_wrong_typed_payload_is_discarded_loudly(self, tmp_path, caplog):
        """A valid row holding the wrong payload class heals like corruption
        and is reclassified from hit to miss in the store's counters."""
        study = sim_study()
        owner = SimEngine(disk_cache=tmp_path)
        baseline = owner.run(study)
        # Overwrite every row with a structurally valid but foreign payload.
        keys = [
            owner._disk_key(owner.cache_key(name, point))
            for point in study.points
            for name in owner.spot.pdns
        ]
        owner.disk_cache.put_many(keys, [{"not": "a SimulationResult"}] * len(keys))
        warm = SimEngine(disk_cache=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert warm.run(study) == baseline  # recomputed, never served
        assert "discarding row" in caplog.text
        stats = warm.disk_cache.stats()
        assert stats.hits == 0  # discards reclassified the hits
        assert stats.corrupt == len(keys)
        assert warm.cache_info().misses == len(keys)
        assert SimEngine(disk_cache=tmp_path).run(study) == baseline  # healed

    def test_corrupt_rows_recompute_identically(self, tmp_path):
        import sqlite3

        study = sim_study()
        baseline = SimEngine(disk_cache=tmp_path).run(study)
        # Corrupt every stored row behind the engine's back.
        with sqlite3.connect(tmp_path / "cache.sqlite3") as db:
            corrupted = db.execute(
                "UPDATE entries SET payload = X'00FF'"
            ).rowcount
        assert corrupted == 5
        warm = SimEngine(disk_cache=tmp_path)
        assert warm.run(study) == baseline  # recomputed, never raised
        assert warm.disk_cache.stats().corrupt == corrupted
        assert warm.cache_info().misses == corrupted


class TestOptimizeDiskTier:
    def test_warm_directory_search_is_bit_identical(self, tmp_path):
        space = DesignSpace.over_pdns(["IVR", "LDO", "FlexWatts"])
        objectives = ["etee", "energy"]  # energy rides the simulation tier
        baseline = run_optimization(space, objectives=objectives)
        cold = run_optimization(space, objectives=objectives, cache_dir=tmp_path)
        assert cache_dir_summary(tmp_path)["sim"][0] > 0
        warm = run_optimization(space, objectives=objectives, cache_dir=tmp_path)
        assert cold.results == baseline.results
        assert warm.results == baseline.results
        assert warm.front == baseline.front
        assert warm.knee == baseline.knee

    def test_prebuilt_evaluator_rejects_cache_dir(self, tmp_path):
        from repro.optimize import CandidateEvaluator, resolve_objectives

        evaluator = CandidateEvaluator(resolve_objectives(["etee", "bom"]))
        with pytest.raises(ConfigurationError, match="cache_dir"):
            run_optimization(
                DesignSpace.over_pdns(["IVR"]),
                objectives=["etee", "bom"],
                evaluator=evaluator,
                cache_dir=tmp_path,
            )

    def test_evaluator_rejects_prebuilt_store_instance(self, tmp_path):
        """Paths only, checked at construction: not mid-search when a sim
        objective lazily builds the SimEngine."""
        from repro.optimize import CandidateEvaluator, resolve_objectives

        with pytest.raises(TypeError, match="DiskCache"):
            CandidateEvaluator(
                resolve_objectives(["etee", "energy"]),
                cache_dir=DiskCache(tmp_path, "sim", "fp"),
            )


class TestConcurrency:
    """Concurrent disk-cache access across threads and processes."""

    def test_threads_sharing_one_store_lose_no_update(self, tmp_path):
        """The daemon's worker threads share one store and its connection."""
        store = DiskCache(tmp_path, "threads", "fp")
        threads, rounds = 8, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(worker):
                for index in range(rounds):
                    key = (worker, index)
                    assert store.put_many([key], [index]) == 1
                    assert store.get_many([key, (worker, -1)]) == [index, None]

            with futures.ThreadPoolExecutor(max_workers=threads) as pool:
                for done in [pool.submit(work, worker) for worker in range(threads)]:
                    done.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        stats = store.stats()
        total = threads * rounds
        assert (stats.writes, stats.hits, stats.misses) == (total, total, total)
        assert stats.entries == total and stats.corrupt == 0

    def test_two_process_workers_writing_the_same_key(self, tmp_path):
        root = str(tmp_path)
        with futures.ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(_put_same_key, [root] * 2, range(2)))
        assert outcomes == [1, 1]
        cache = DiskCache(root, "race", "fp")
        payload = cache.get_many([("shared", "key")])[0]
        assert payload is not None and payload["value"] == 42.0  # one valid winner
        assert cache.stats().entries == 1
        assert cache.stats().corrupt == 0

    def test_warm_directory_in_another_process_is_bit_identical(self, tmp_path):
        study = sim_study()
        cold_serial = SimEngine().run(study)  # the cache-less reference
        SimEngine(disk_cache=tmp_path).run(study)  # this process populates
        with futures.ProcessPoolExecutor(max_workers=1) as pool:
            warm_json = pool.submit(_simulate_in_subprocess, str(tmp_path)).result()
        assert warm_json == cold_serial.to_json()  # byte-for-byte identical
