"""RunStats attachment: engines and the optimizer report run statistics."""

from __future__ import annotations

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import Study
from repro.obs.runstats import RunStats


class TestRunStatsValue:
    def test_hit_rate_and_dict_shape(self):
        stats = RunStats(
            units=10, duration_s=0.5, cache_hits=6, cache_misses=4
        )
        assert stats.hit_rate == 0.6
        assert stats.as_dict() == {
            "units": 10,
            "duration_s": 0.5,
            "cache_hits": 6,
            "cache_misses": 4,
            "hit_rate": 0.6,
        }

    def test_hit_rate_with_no_lookups_is_zero(self):
        stats = RunStats(units=0, duration_s=0.0, cache_hits=0, cache_misses=0)
        assert stats.hit_rate == 0.0


class TestEngineAttachment:
    def test_pdnspot_run_attaches_run_stats(self):
        spot = PdnSpot()
        study = Study.over_tdps([4.0, 18.0])
        results = spot.run(study)
        stats = results.run_stats
        assert stats is not None
        assert stats.units == len(results)
        assert stats.duration_s > 0
        assert stats.cache_misses == stats.units
        assert stats.cache_hits == 0
        # A warm rerun is all hits, and equality ignores run_stats.
        rerun = spot.run(study)
        assert rerun.run_stats.cache_hits == rerun.run_stats.units
        assert rerun.run_stats.cache_misses == 0
        assert rerun.run_stats.hit_rate == 1.0
        assert rerun == results

    def test_run_stats_never_serializes(self):
        spot = PdnSpot()
        results = spot.run(Study.over_tdps([4.0]))
        assert results.run_stats is not None
        assert "run_stats" not in results.to_json()
        from repro.analysis.resultset import ResultSet

        revived = ResultSet.from_json(results.to_json())
        assert revived.run_stats is None
        assert revived == results

    def test_optimizer_attaches_run_stats(self):
        from repro.optimize import DesignSpace, run_optimization

        outcome = run_optimization(DesignSpace.over_pdns(["IVR", "LDO"]))
        assert outcome.run_stats is not None
        assert outcome.run_stats.units == 2
        assert outcome.run_stats.duration_s > 0
