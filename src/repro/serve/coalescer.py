"""Request coalescing over an evaluation engine's cache keys.

The daemon's reason to exist: N concurrent clients sweeping overlapping
grids must cost one evaluation per *distinct* grid point, not one per
request.  A :class:`Coalescer` wraps one
:class:`~repro.analysis.executor.EvaluationEngine` and gives every request
handler the same awaitable surface -- ``await coalescer.evaluate(units)`` --
while guaranteeing:

**Single-flight.**  Each evaluation unit is identified by its engine cache
key.  A key whose evaluation is already in flight (dispatched by any
request) is *awaited*, never re-dispatched: late requests attach to the
first request's future.

**Memory hits settle at scatter.**  The keys that are not in flight are
peeked in the engine's memory tier in one
:meth:`~repro.analysis.executor.EvaluationEngine.cache_peek_many` call, on
the event loop: a hit is a settled future, so a request the memory tier
answers whole never waits for a flush or a thread-pool hop.  The peek
never reads a lower tier (the simulation engine's disk store).

**Per-tick batching.**  The misses are appended to a pending batch; a
flush is scheduled with ``loop.call_soon``, so every request decomposed
within the same event-loop scheduling tick lands in **one**
:func:`evaluate_units_async` dispatch (optionally widened by
``batch_window_s``).  The dispatch path then looks the keys up again
(every tier), dedupes, evaluates and merges results into the engine's
shared cache exactly as a local batch run would.

**Canonical reassembly.**  ``evaluate`` returns results in the caller's
unit order regardless of which request computed them, so each handler can
rebuild its ResultSet rows exactly as the local engine would.

Previously *completed* keys are not tracked here -- they live in the
engine's own memory/disk cache, which the peek and the dispatched batch
consult -- so the coalescer stays a thin in-flight index, not a third
cache tier.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.executor import (
    EvalResult,
    EvalUnit,
    EvaluationEngine,
    evaluate_units,
)
from repro.obs import trace as obs_trace

#: An engine cache key (opaque: whatever ``engine.cache_key`` returns).
CacheKey = Tuple[object, ...]


async def evaluate_units_async(
    engine: EvaluationEngine,
    units: Iterable[EvalUnit],
    on_lookup: Optional[Callable[[int], None]] = None,
) -> List[EvalResult]:
    """Evaluate ``units`` without blocking the running event loop.

    The awaitable dispatch seam the evaluation service is built on: the
    blocking :func:`~repro.analysis.executor.evaluate_units` drive (cache
    lookup, dedupe, evaluate, merge-back, canonical reassembly) runs on the
    loop's default thread pool while the caller's coroutine is suspended.  Results -- and every cache side
    effect -- are exactly those of the synchronous call.

    Parameters
    ----------
    engine:
        Any :class:`~repro.analysis.executor.EvaluationEngine` (the analytic
        or the simulation engine, or a test stub).
    units:
        The ``(pdn name, point, overrides)`` units, evaluated in order.
    on_lookup:
        Called on the seam thread with the number of distinct keys the
        batch's cache lookup served (see
        :func:`~repro.analysis.executor.evaluate_units`).
    """
    unit_list = list(units)
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, evaluate_units, engine, unit_list, on_lookup
    )


@dataclass
class CoalescerStats:
    """Traffic counters of one :class:`Coalescer` (monotonic, process-local).

    Attributes
    ----------
    units_requested:
        Evaluation units received across every ``evaluate`` call.
    keys_coalesced:
        Units that attached to an already-in-flight key, or repeated a key
        of the same request, instead of dispatching a new evaluation (the
        single-flight savings).
    keys_dispatched:
        Distinct keys settled from the memory tier at scatter or handed
        to the dispatch seam; ``units_requested == keys_dispatched +
        keys_coalesced`` once every batch has settled.
    batches_dispatched:
        Dispatches issued (scheduling ticks that had misses).
    largest_batch:
        Size of the largest single dispatch.
    keys_from_cache:
        Dispatched keys the engine's cache served: the scatter-time memory
        hits, plus what each successful dispatch's own lookup served; the
        other ``keys_dispatched - keys_from_cache`` keys were computed.
    """

    units_requested: int = 0
    keys_coalesced: int = 0
    keys_dispatched: int = 0
    batches_dispatched: int = 0
    largest_batch: int = 0
    keys_from_cache: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a JSON-ready mapping (stable key order)."""
        return {
            "units_requested": self.units_requested,
            "keys_coalesced": self.keys_coalesced,
            "keys_dispatched": self.keys_dispatched,
            "batches_dispatched": self.batches_dispatched,
            "largest_batch": self.largest_batch,
            "keys_from_cache": self.keys_from_cache,
        }


class Coalescer:
    """Single-flight, tick-batched evaluation front of one engine.

    Parameters
    ----------
    engine:
        The evaluation engine requests decompose onto.  Its cache keys
        define unit identity; its cache serves repeats.
    batch_window_s:
        Extra time a scheduled flush waits before collecting the pending
        batch.  ``0`` (default) flushes on the next event-loop tick --
        requests decomposed in the same tick still share one dispatch;
        a positive window trades first-byte latency for larger batches.
    """

    def __init__(
        self,
        engine: EvaluationEngine,
        batch_window_s: float = 0.0,
    ):
        self._engine = engine
        self._batch_window_s = batch_window_s
        self._inflight: Dict[CacheKey, "asyncio.Future[EvalResult]"] = {}
        self._pending: List[Tuple[CacheKey, EvalUnit]] = []
        self._flush_scheduled = False
        self._dispatch_tasks: "set[asyncio.Task[None]]" = set()
        self.stats = CoalescerStats()

    @property
    def engine(self) -> EvaluationEngine:
        """The wrapped evaluation engine (shared cache owner)."""
        return self._engine

    @property
    def in_flight(self) -> int:
        """Number of cache keys currently being computed or pending dispatch."""
        return len(self._inflight)

    def scatter(self, units: Sequence[EvalUnit]) -> List["asyncio.Future[EvalResult]"]:
        """Register ``units`` and return one future per unit, in caller order.

        The keys not in flight are peeked in the engine's memory tier in one
        call: a hit becomes an already settled future, a miss a fresh future
        backed by a slot in the next dispatched batch.  A key already in
        flight, or repeated within ``units``, shares that key's future and
        counts as coalesced.  Futures are shared between requests --
        abandoning one (e.g. on a request timeout) must not cancel it;
        await through :func:`asyncio.wait`, which never cancels what it
        waits on.
        """
        loop = asyncio.get_running_loop()
        cache_key = self._engine.cache_key
        keys = [cache_key(name, point, overrides) for name, point, overrides in units]
        fresh: Dict[CacheKey, EvalUnit] = {}
        for key, unit in zip(keys, units):
            if key not in self._inflight:
                fresh.setdefault(key, unit)
        settled: Dict[CacheKey, "asyncio.Future[EvalResult]"] = {}
        peeked = self._engine.cache_peek_many(list(fresh))
        for (key, unit), result in zip(fresh.items(), peeked):
            future = loop.create_future()
            if result is None:
                self._inflight[key] = future
                self._pending.append((key, unit))
            else:
                future.set_result(result)
                settled[key] = future
        stats = self.stats
        stats.units_requested += len(units)
        stats.keys_coalesced += len(units) - len(fresh)
        # A hit is a dispatched key its cache served, without a batch.
        stats.keys_dispatched += len(settled)
        stats.keys_from_cache += len(settled)
        futures = [
            settled[key] if key in settled else self._inflight[key] for key in keys
        ]
        if self._pending:
            self._schedule_flush(loop)
        return futures

    async def evaluate(self, units: Sequence[EvalUnit]) -> List[EvalResult]:
        """Evaluate ``units`` through the coalescer, in caller order.

        The awaitable convenience over :meth:`scatter`; a failed dispatch
        re-raises its error to every request that awaited one of its keys.
        """
        futures = self.scatter(units)
        if not all(future.done() for future in futures):
            # asyncio.wait never cancels the shared futures other requests
            # await, even when this caller is cancelled.
            await asyncio.wait(set(futures))
        return [future.result() for future in futures]

    def _schedule_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        """Arrange for the pending batch to dispatch on a scheduling tick."""
        if self._flush_scheduled:
            return
        self._flush_scheduled = True
        if self._batch_window_s > 0:
            loop.call_later(self._batch_window_s, self._start_flush, loop)
        else:
            loop.call_soon(self._start_flush, loop)

    def _start_flush(self, loop: asyncio.AbstractEventLoop) -> None:
        """Collect the pending batch and dispatch it as one batch."""
        self._flush_scheduled = False
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.stats.keys_dispatched += len(batch)
        self.stats.batches_dispatched += 1
        self.stats.largest_batch = max(self.stats.largest_batch, len(batch))
        task = loop.create_task(self._dispatch(batch))
        self._dispatch_tasks.add(task)
        task.add_done_callback(self._dispatch_tasks.discard)

    async def _dispatch(self, batch: List[Tuple[CacheKey, EvalUnit]]) -> None:
        """Evaluate one batch on the seam and settle its in-flight futures."""
        keys = [key for key, _ in batch]
        units = [unit for _, unit in batch]
        # Filled on the seam thread, read here once the dispatch is done.
        served: List[int] = []
        try:
            with obs_trace.span("serve.coalescer.flush", category="serve",
                                units=len(units)):
                results = await evaluate_units_async(
                    self._engine, units, on_lookup=served.append
                )
        except Exception as error:  # noqa: BLE001 - settled into the futures
            for key in keys:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(error)
                    # Requests read the error through result(); marking it
                    # retrieved keeps asyncio from logging a traceback per
                    # key no request reads (the units after the first error).
                    future.exception()
        else:
            self.stats.keys_from_cache += sum(served)
            for key, result in zip(keys, results):
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_result(result)

    async def drain(self) -> None:
        """Wait until every dispatched batch has settled its futures."""
        while self._dispatch_tasks or self._pending or self._flush_scheduled:
            if self._dispatch_tasks:
                await asyncio.gather(
                    *list(self._dispatch_tasks), return_exceptions=True
                )
            else:
                await asyncio.sleep(0)
