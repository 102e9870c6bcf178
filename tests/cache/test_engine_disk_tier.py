"""The disk store as the second cache tier of the evaluation engines.

Covers the cross-run warm-start contract of ISSUE 5: a cache directory
populated by one engine (or one process) makes an identical run in a *fresh*
engine (or another process) serve every unit from disk, with results
bit-identical to a cache-less run, for the sweep, simulate and optimize
paths; concurrent writers leave a valid store behind.
"""

from concurrent import futures

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study
from repro.cache import DiskCache
from repro.optimize import DesignSpace, run_optimization
from repro.sim.study import SimEngine, SimStudy, run_sim
from repro.util.errors import ConfigurationError


def sweep_study() -> Study:
    return (
        Study.builder("disk-tier")
        .tdps(4.0, 18.0)
        .application_ratios(0.4, 0.56)
        .power_states("C2", "C8")
        .build()
    )


def sim_study() -> SimStudy:
    return SimStudy.over_scenarios(
        ["duty-cycled-background"], tdps_w=[18.0], name="disk-tier-sim"
    )


# --------------------------------------------------------------------------- #
# Worker functions for the cross-process tests (must be module-level to pickle)
# --------------------------------------------------------------------------- #
def _put_same_key(root: str, worker: int) -> bool:
    """One process-pool worker writing the contested key."""
    cache = DiskCache(root, namespace="race", fingerprint="fp")
    return cache.put(("shared", "key"), {"worker": worker, "value": 42.0})


def _sweep_in_subprocess(cache_dir: str) -> str:
    """Run the sweep grid against a warm directory in another process."""
    spot = PdnSpot(disk_cache=cache_dir)
    resultset = spot.run(sweep_study())
    info = spot.cache_info()
    disk = spot.disk_cache.stats()
    assert info.misses == 0, "warm directory: nothing may be recomputed"
    assert disk.hits == disk.entries == info.hits
    return resultset.to_json()


class TestPdnSpotDiskTier:
    def test_disk_requires_memo_cache(self, tmp_path):
        with pytest.raises(ConfigurationError, match="enable_cache"):
            PdnSpot(enable_cache=False, disk_cache=tmp_path)

    def test_cold_run_writes_through(self, tmp_path):
        spot = PdnSpot(disk_cache=tmp_path)
        resultset = spot.run(sweep_study())
        stats = spot.disk_cache.stats()
        assert stats.writes == spot.cache_info().misses == stats.entries
        assert len(resultset) > 0

    def test_fresh_engine_serves_every_unit_from_disk(self, tmp_path):
        study = sweep_study()
        baseline = PdnSpot().run(study)  # cache-less reference
        PdnSpot(disk_cache=tmp_path).run(study)  # populate

        warm = PdnSpot(disk_cache=tmp_path)
        served = warm.run(study)
        info = warm.cache_info()
        disk = warm.disk_cache.stats()
        assert info.misses == 0
        assert disk.hits == disk.entries
        assert disk.writes == 0
        assert served == baseline  # bit-identical to the cache-less run

    def test_prebuilt_bare_store_still_invalidates_on_parameter_change(
        self, tmp_path
    ):
        """The code-review repro: DiskCache(d) with no fingerprint must not
        serve one technology's results to an engine built with another."""
        study = sweep_study()
        PdnSpot(disk_cache=DiskCache(tmp_path)).run(study)
        perturbed_parameters = PdnSpot().parameters.with_overrides(
            supply_voltage_v=PdnSpot().parameters.supply_voltage_v * 1.5
        )
        truth = PdnSpot(parameters=perturbed_parameters).run(study)
        perturbed = PdnSpot(
            parameters=perturbed_parameters, disk_cache=DiskCache(tmp_path)
        )
        assert perturbed.run(study) == truth
        assert perturbed.disk_cache.stats().hits == 0  # nothing stale served

    def test_parameter_change_invalidates_directory(self, tmp_path):
        study = sweep_study()
        PdnSpot(disk_cache=tmp_path).run(study)
        perturbed = PdnSpot(
            parameters=PdnSpot().parameters.with_overrides(
                ivr_tolerance_band_v=0.015
            ),
            disk_cache=tmp_path,
        )
        perturbed.run(study)
        assert perturbed.disk_cache.stats().hits == 0  # nothing stale served
        assert perturbed.cache_info().misses > 0

    def test_wrong_typed_payload_is_discarded_loudly(self, tmp_path, caplog):
        """A valid entry holding the wrong payload class heals like corruption
        and is reclassified from hit to miss in the store's counters."""
        import logging

        spot = PdnSpot(disk_cache=tmp_path)
        study = sweep_study()
        baseline = spot.run(study)
        # Overwrite every entry with a structurally valid but foreign payload.
        store = spot.disk_cache
        keys = [
            spot.cache_key(name, scenario.conditions(), scenario.overrides)
            for scenario in study.scenarios
            for name in spot.pdns
        ]
        for key in keys:
            store.put(key, {"not": "a PdnEvaluation"})
        warm = PdnSpot(disk_cache=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert warm.run(study) == baseline  # recomputed, never served
        assert "discarding entry" in caplog.text
        stats = warm.disk_cache.stats()
        assert stats.hits == 0  # discards reclassified the hits
        assert stats.corrupt == len(set(keys))
        assert warm.cache_info().misses == len(set(keys))

    def test_corrupt_entries_recompute_identically(self, tmp_path):
        study = sweep_study()
        spot = PdnSpot(disk_cache=tmp_path)
        baseline = spot.run(study)
        # Corrupt every stored entry behind the engine's back.
        entries = list((tmp_path / "pdnspot").glob("*/*.pkl"))
        assert entries
        for path in entries:
            path.write_bytes(b"\x00 torn write \xff")
        warm = PdnSpot(disk_cache=tmp_path)
        assert warm.run(study) == baseline  # recomputed, never raised
        assert warm.disk_cache.stats().corrupt == len(entries)
        assert warm.cache_info().misses == len(entries)


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
        # The phase-level tier persisted too (static-PDN operating points).
        assert (tmp_path / "pdnspot").is_dir()

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

    def test_prebuilt_store_attaches_sim_tier_only(self, tmp_path):
        store = DiskCache(tmp_path, namespace="sim", fingerprint="custom")
        engine = SimEngine(disk_cache=store)
        assert engine.disk_cache is store
        assert engine.spot.disk_cache is None

    def test_prebuilt_bare_store_lands_in_sim_namespace(self, tmp_path):
        """A bare DiskCache bound by SimEngine must not pollute 'pdnspot'."""
        store = DiskCache(tmp_path)
        engine = SimEngine(disk_cache=store)
        engine.run(sim_study())
        assert store.namespace == "sim"
        assert (tmp_path / "sim").is_dir()
        assert not (tmp_path / "pdnspot").exists()  # spot tier not attached
        stats = store.stats()  # the caller's instance records the traffic
        assert stats.writes == stats.entries > 0


class TestOptimizeDiskTier:
    def test_warm_directory_search_is_bit_identical(self, tmp_path):
        space = DesignSpace.over_pdns(["IVR", "LDO", "FlexWatts"])
        baseline = run_optimization(space, objectives=["etee", "bom"])
        cold = run_optimization(
            space, objectives=["etee", "bom"], cache_dir=tmp_path
        )
        warm = run_optimization(
            space, objectives=["etee", "bom"], cache_dir=tmp_path
        )
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
        """One store cannot serve both owned engines; fail at construction,
        not mid-search when a sim objective lazily builds the SimEngine."""
        from repro.optimize import CandidateEvaluator, resolve_objectives

        with pytest.raises(ConfigurationError, match="directory path"):
            CandidateEvaluator(
                resolve_objectives(["etee", "energy"]),
                cache_dir=DiskCache(tmp_path),
            )


class TestConcurrency:
    """Satellite: concurrent disk-cache access across processes."""

    def test_two_process_workers_writing_the_same_key(self, tmp_path):
        root = str(tmp_path)
        with futures.ProcessPoolExecutor(max_workers=2) as pool:
            outcomes = list(pool.map(_put_same_key, [root] * 2, range(2)))
        assert all(outcomes)
        cache = DiskCache(root, namespace="race", fingerprint="fp")
        payload = cache.get(("shared", "key"))
        assert payload is not None and payload["value"] == 42.0  # one valid winner
        assert cache.stats().entries == 1
        assert cache.stats().corrupt == 0

    def test_warm_directory_in_another_process_is_bit_identical(self, tmp_path):
        study = sweep_study()
        cold_serial = PdnSpot().run(study)  # the cache-less reference
        PdnSpot(disk_cache=tmp_path).run(study)  # this process populates
        with futures.ProcessPoolExecutor(max_workers=1) as pool:
            warm_json = pool.submit(_sweep_in_subprocess, str(tmp_path)).result()
        assert warm_json == cold_serial.to_json()  # byte-for-byte identical
