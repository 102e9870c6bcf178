"""Coalescer semantics: single-flight, per-tick batching, canonical order.

The contract under test is the daemon's headline guarantee: concurrent
requests over overlapping grids cost exactly one evaluation per *distinct*
cache key -- keys already in flight are awaited, never recomputed -- and
every caller gets its results back in its own unit order.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter
from typing import List, Optional, Tuple

import pytest

from repro.analysis.pdnspot import PdnSpot
from repro.analysis.study import study_units
from repro.obs.metrics import METRICS
from repro.serve.coalescer import Coalescer
from repro.serve.protocol import build_simulate_study, build_sweep_study
from repro.sim.study import SimEngine


class CountingEngine:
    """A minimal :class:`EvaluationEngine` that counts every real evaluation.

    ``gates[name]`` holds a :class:`threading.Event` an evaluation of that
    PDN name blocks on, so tests can hold a key in flight deterministically.
    """

    def __init__(self):
        self._cache = {}
        self._lock = threading.Lock()
        self.eval_counts = Counter()
        self.gates = {}
        self.peeks = []

    @property
    def cache_enabled(self) -> bool:
        return True

    def cache_key(self, name, point, overrides) -> Tuple[object, ...]:
        return (name, point, overrides)

    def cache_lookup_many(self, keys) -> List[Optional[object]]:
        with self._lock:
            return [self._cache.get(key) for key in keys]

    def cache_peek_many(self, keys) -> List[Optional[object]]:
        with self._lock:
            self.peeks.extend(keys)
            return [self._cache.get(key) for key in keys]

    def cache_install_many(self, keys, results) -> List[object]:
        with self._lock:
            self._cache.update(zip(keys, results))
            return list(results)

    @property
    def columnar_enabled(self) -> bool:
        return False

    def evaluate_columns(self, units) -> None:
        return None  # no batch path: every unit goes through evaluate_uncached

    def evaluate_uncached(self, name, point, overrides):
        gate = self.gates.get(name)
        if gate is not None:
            assert gate.wait(timeout=30.0), "test gate never released"
        with self._lock:
            self.eval_counts[(name, point, overrides)] += 1
        return ("result", name, point, overrides)

    def worker_config(self):  # pragma: no cover - no process backend in tests
        raise NotImplementedError


def units_for(name: str, points) -> list:
    return [(name, point, ()) for point in points]


class TestSingleFlight:
    def test_overlapping_concurrent_requests_evaluate_each_key_once(self):
        """Two simultaneous requests over overlapping grids: one evaluation
        per distinct key, both requests see correct results in their order."""
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            request_a = units_for("A", range(4))       # keys 0..3
            request_b = units_for("A", range(2, 6))    # keys 2..5 (overlap 2,3)
            results_a, results_b = await asyncio.gather(
                coalescer.evaluate(request_a), coalescer.evaluate(request_b)
            )
            await coalescer.drain()
            return coalescer, results_a, results_b

        coalescer, results_a, results_b = asyncio.run(main())
        assert results_a == [("result", "A", point, ()) for point in range(4)]
        assert results_b == [("result", "A", point, ()) for point in range(2, 6)]
        # 6 distinct keys, each evaluated exactly once.
        assert len(engine.eval_counts) == 6
        assert set(engine.eval_counts.values()) == {1}
        # The two overlapping keys attached to in-flight futures.
        assert coalescer.stats.units_requested == 8
        assert coalescer.stats.keys_coalesced == 2
        assert coalescer.stats.keys_dispatched == 6

    def test_same_tick_requests_share_one_dispatch(self):
        """Requests decomposed in the same scheduling tick batch into one
        executor dispatch, not one per request."""
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await asyncio.gather(
                coalescer.evaluate(units_for("A", range(3))),
                coalescer.evaluate(units_for("B", range(3))),
                coalescer.evaluate(units_for("C", range(3))),
            )
            await coalescer.drain()
            return coalescer

        coalescer = asyncio.run(main())
        assert coalescer.stats.batches_dispatched == 1
        assert coalescer.stats.largest_batch == 9

    def test_slow_inflight_key_is_awaited_not_recomputed(self):
        """A request arriving while a key is mid-evaluation attaches to the
        in-flight future; when the evaluation lands, both requests get the
        same result and the engine ran exactly once."""
        engine = CountingEngine()
        engine.gates["slow"] = threading.Event()

        async def main():
            coalescer = Coalescer(engine)
            first = asyncio.ensure_future(coalescer.evaluate(units_for("slow", [0])))
            # Let the first request dispatch and block inside the worker.
            for _ in range(10):
                await asyncio.sleep(0.01)
                if coalescer.in_flight:
                    break
            second = asyncio.ensure_future(coalescer.evaluate(units_for("slow", [0])))
            await asyncio.sleep(0.05)
            assert not first.done() and not second.done()
            engine.gates["slow"].set()
            results = await asyncio.gather(first, second)
            await coalescer.drain()
            return coalescer, results

        coalescer, (first, second) = asyncio.run(main())
        assert first == second == [("result", "slow", 0, ())]
        assert engine.eval_counts[("slow", 0, ())] == 1
        assert coalescer.stats.keys_coalesced == 1
        assert coalescer.stats.keys_dispatched == 1

    def test_completed_keys_are_served_by_the_engine_cache(self):
        """A key evaluated by an earlier batch is re-requested through the
        engine's own cache (no second real evaluation, no tracking here)."""
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await coalescer.evaluate(units_for("A", range(2)))
            await coalescer.drain()
            assert coalescer.in_flight == 0
            return await coalescer.evaluate(units_for("A", range(2)))

        results = asyncio.run(main())
        assert results == [("result", "A", point, ()) for point in range(2)]
        assert set(engine.eval_counts.values()) == {1}


class TestKeysFromCache:
    """``keys_from_cache`` counts, per dispatch, the keys its own cache
    lookup served; the rest of ``keys_dispatched`` were computed."""

    def test_cold_then_warm_key(self):
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await coalescer.evaluate(units_for("A", [0]))
            cold = coalescer.stats.keys_from_cache
            await coalescer.evaluate(units_for("A", [0, 1]))
            return coalescer, cold

        coalescer, cold = asyncio.run(main())
        assert cold == 0
        assert coalescer.stats.keys_dispatched == 3
        assert coalescer.stats.keys_from_cache == 1  # A0 warm, A1 computed
        assert set(engine.eval_counts.values()) == {1}

    def test_overlapping_dispatches_count_their_own_lookups(self):
        """A dispatch held in flight on its seam thread while a second one
        runs to completion: each adds only what its own lookup served, when
        it settles."""
        class EnteredEngine(CountingEngine):
            """Signals once the slow key's evaluation (after the lookup) starts.

            Its cache answers a dispatch's lookup only, like a lower tier:
            the scatter-time peek finds nothing, so every key dispatches.
            """

            def __init__(self):
                super().__init__()
                self.entered = threading.Event()

            def cache_peek_many(self, keys):
                return [None] * len(keys)

            def evaluate_uncached(self, name, point, overrides):
                if name == "slow":
                    self.entered.set()
                return super().evaluate_uncached(name, point, overrides)

        engine = EnteredEngine()
        engine.gates["slow"] = threading.Event()

        async def main():
            coalescer = Coalescer(engine)
            await coalescer.evaluate(units_for("A", [0, 1]))  # warm A0, A1
            first = asyncio.ensure_future(
                coalescer.evaluate(units_for("A", [0]) + units_for("slow", [0]))
            )
            for _ in range(3000):
                if engine.entered.is_set():  # first's lookup is done
                    break
                await asyncio.sleep(0.01)
            assert engine.entered.is_set()
            second = await coalescer.evaluate(
                units_for("A", [1]) + units_for("B", [0])
            )
            during = coalescer.stats.keys_from_cache
            engine.gates["slow"].set()
            await first
            await coalescer.drain()
            return coalescer, second, during

        coalescer, second, during = asyncio.run(main())
        assert second == [("result", "A", 1, ()), ("result", "B", 0, ())]
        assert coalescer.stats.batches_dispatched == 3
        assert during == 1  # the second dispatch's A1 only
        assert coalescer.stats.keys_from_cache == 2
        assert coalescer.stats.keys_dispatched == 6

    def test_appended_after_the_existing_keys(self):
        assert list(Coalescer(CountingEngine()).stats.as_dict()) == [
            "units_requested", "keys_coalesced", "keys_dispatched",
            "batches_dispatched", "largest_batch", "keys_from_cache",
        ]


class TestScatterTimeHits:
    """Keys the engine's memory tier holds settle at scatter, on the loop."""

    def test_fully_cached_request_dispatches_no_batch(self):
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await coalescer.evaluate(units_for("A", range(3)))
            batches = coalescer.stats.batches_dispatched
            futures = coalescer.scatter(units_for("A", range(3)))
            settled = all(future.done() for future in futures)
            results = await coalescer.evaluate(units_for("A", range(3)))
            return coalescer, batches, settled, results

        coalescer, batches, settled, results = asyncio.run(main())
        assert batches == 1
        assert settled
        assert results == [("result", "A", point, ()) for point in range(3)]
        assert coalescer.stats.batches_dispatched == 1
        assert coalescer.in_flight == 0

    def test_counter_relations_after_mixed_hits_misses_and_coalescing(self):
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await coalescer.evaluate(units_for("A", [0, 1]))
            await asyncio.gather(
                coalescer.evaluate(units_for("A", [0, 1, 2, 2])),  # hit, hit, miss, repeat
                coalescer.evaluate(units_for("A", [2, 3])),        # in flight, miss
                coalescer.evaluate(units_for("A", [1, 1])),        # hit, repeat
            )
            await coalescer.drain()
            return coalescer.stats

        stats = asyncio.run(main())
        computed = sum(engine.eval_counts.values())
        assert computed == 4  # A0..A3, once each
        assert stats.units_requested == stats.keys_dispatched + stats.keys_coalesced
        assert computed == stats.keys_dispatched - stats.keys_from_cache
        assert (stats.units_requested, stats.keys_coalesced) == (10, 3)
        assert (stats.keys_dispatched, stats.keys_from_cache) == (7, 3)

    def test_repeated_key_is_peeked_once(self):
        engine = CountingEngine()

        async def main():
            coalescer = Coalescer(engine)
            await coalescer.evaluate(units_for("A", [0]))
            engine.peeks.clear()
            results = await coalescer.evaluate(units_for("A", [0, 0, 0]))
            return coalescer.stats, results

        stats, results = asyncio.run(main())
        assert engine.peeks == [("A", 0, ())]
        assert results == [("result", "A", 0, ())] * 3
        assert stats.keys_coalesced == 2

    def test_peek_never_reads_the_disk_tier(self, tmp_path, monkeypatch):
        study = build_simulate_study(tdps=(18.0,), seed=1, pdns=["IVR", "LDO"])
        units = [(name, point, point.overrides)
                 for point in study.points[:2] for name in ("IVR", "LDO")]
        SimEngine(disk_cache=tmp_path).run(study)  # warm the disk tier
        reads = []
        original = SimEngine._lookup_below

        def spy(self, keys, found, missing):
            reads.append(len(missing))
            return original(self, keys, found, missing)

        monkeypatch.setattr(SimEngine, "_lookup_below", spy)
        engine = SimEngine(disk_cache=tmp_path)  # cold memory, warm disk
        keys = [engine.cache_key(*unit) for unit in units]
        assert engine.cache_peek_many(keys) == [None] * len(keys)
        assert reads == []

        async def main():
            coalescer = Coalescer(engine)
            first = await coalescer.evaluate(units)   # misses: the batch reads disk
            second = await coalescer.evaluate(units)  # memory hits: no batch
            return coalescer.stats, first, second

        stats, first, second = asyncio.run(main())
        assert reads == [len(units)]
        assert first == second
        assert stats.batches_dispatched == 1
        assert stats.keys_from_cache == stats.keys_dispatched == 2 * len(units)


def sweep_units(tdps) -> list:
    """The units of a two-PDN sweep at AR 0.5 (two per TDP)."""
    study = build_sweep_study(tdps, [0.5], pdns=["IVR", "LDO"])
    return study_units(study, ["IVR", "LDO"])


def drive_sweeps(steps) -> Tuple[int, ...]:
    """Run coalesced sweeps on a fresh engine; return its cache counts.

    Each step gathers its requests in one tick; a request is ``(tdps,
    repeats)``, its units repeated ``repeats`` times.  Returns
    ``cache_info()`` (hits, misses, size) and the deltas of
    ``cache.memory.hits``, ``cache.lookup.misses`` and ``cache.installs``.
    """
    spot = PdnSpot()
    names = ("cache.memory.hits", "cache.lookup.misses", "cache.installs")
    before = [METRICS.counter(name).value for name in names]

    async def main():
        coalescer = Coalescer(spot)
        for step in steps:
            await asyncio.gather(*(
                coalescer.evaluate(sweep_units(tdps) * repeats)
                for tdps, repeats in step
            ))
        await coalescer.drain()

    asyncio.run(main())
    info = spot.cache_info()
    deltas = [METRICS.counter(name).value - start for name, start in zip(names, before)]
    return (info.hits, info.misses, info.size, *deltas)


def test_cache_counts_of_a_request_sequence_are_unchanged_by_the_peek():
    """Peeking at scatter moves where a hit is counted, not how many.  The
    counts equal those of a flush-time lookup of every key: TDPs 4/18 cold
    (4 misses), again (4 hits), 18/50 (2 hits, 2 misses), then 50/4 twice
    in one request (4 hits; the repeats coalesce)."""
    steps = [[([4.0, 18.0], 1)], [([4.0, 18.0], 1)], [([18.0, 50.0], 1)],
             [([50.0, 4.0], 2)]]
    assert drive_sweeps(steps) == (10, 6, 6, 10, 6, 6)


def test_same_tick_requests_each_count_their_memory_hits():
    """Two requests scattering one memory-resident key in the same tick each
    peek it: one hit per request.  (A flush-time lookup counted the second
    request's as coalesced onto the first's pending batch: 8 hits.)"""
    steps = [[([4.0, 18.0], 1)], [([4.0, 18.0], 1), ([18.0, 50.0], 1)],
             [([50.0, 4.0], 2)]]
    assert drive_sweeps(steps) == (10, 6, 6, 10, 6, 6)


class TestFailurePropagation:
    def test_dispatch_error_reaches_every_awaiting_request(self):
        class ExplodingEngine(CountingEngine):
            def evaluate_uncached(self, name, point, overrides):
                raise ValueError("boom")

        engine = ExplodingEngine()

        async def main():
            coalescer = Coalescer(engine)
            first = asyncio.ensure_future(coalescer.evaluate(units_for("A", [0])))
            second = asyncio.ensure_future(coalescer.evaluate(units_for("A", [0])))
            outcomes = await asyncio.gather(first, second, return_exceptions=True)
            await coalescer.drain()
            return coalescer, outcomes

        coalescer, outcomes = asyncio.run(main())
        assert all(isinstance(outcome, ValueError) for outcome in outcomes)
        # The failed key left the in-flight index: a retry can dispatch anew.
        assert coalescer.in_flight == 0

    def test_abandoning_a_shared_future_does_not_cancel_it(self):
        """A caller timing out (``wait_for`` cancels its await) must not kill
        the shared future other requests still wait on."""
        engine = CountingEngine()
        engine.gates["slow"] = threading.Event()

        async def main():
            coalescer = Coalescer(engine)
            survivor = asyncio.ensure_future(
                coalescer.evaluate(units_for("slow", [0]))
            )
            await asyncio.sleep(0.05)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    coalescer.evaluate(units_for("slow", [0])), timeout=0.01
                )
            engine.gates["slow"].set()
            result = await survivor
            await coalescer.drain()
            return result

        result = asyncio.run(main())
        assert result == [("result", "slow", 0, ())]
        assert engine.eval_counts[("slow", 0, ())] == 1


class TestDrain:
    def test_drain_waits_for_dispatched_batches(self):
        engine = CountingEngine()
        engine.gates["slow"] = threading.Event()

        async def main():
            coalescer = Coalescer(engine)
            futures = coalescer.scatter(units_for("slow", [0]))
            await asyncio.sleep(0.05)
            engine.gates["slow"].set()
            await coalescer.drain()
            # After drain every scattered future has settled.
            assert all(future.done() for future in futures)
            return futures[0].result()

        assert asyncio.run(main()) == ("result", "slow", 0, ())

    def test_drain_on_idle_coalescer_returns_immediately(self):
        async def main():
            coalescer = Coalescer(CountingEngine())
            await coalescer.drain()
            return coalescer.in_flight

        assert asyncio.run(main()) == 0
