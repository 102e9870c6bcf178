"""The one dispatch path for study grids and evaluation batches.

Every grid-shaped workload of the library reduces to one shape: an ordered
list of *evaluation units* ``(pdn_name, conditions, overrides)`` evaluated by
an engine implementing the :class:`EvaluationEngine` protocol --
:class:`~repro.analysis.pdnspot.PdnSpot` for analytic operating points
(``conditions`` is an :class:`~repro.pdn.base.OperatingConditions`) and
:class:`~repro.sim.study.SimEngine` for trace-driven simulations
(``conditions`` is a :class:`~repro.sim.study.SimPoint` scenario
reference).  :func:`evaluate_units` turns that list into evaluations on the
calling thread:

1. every unit's cache key is built once and the units are
   **deduplicated** -- only the first occurrence of each distinct key is
   computed; the distinct keys are looked up in one
   :meth:`~EvaluationEngine.cache_lookup_many` call (hits are counted
   exactly as a unit-by-unit run would count them);
2. the misses are evaluated as one chunk: the engine's vectorized
   :meth:`~EvaluationEngine.evaluate_columns` gets the whole chunk, or --
   when it declines -- every unit runs through the per-point
   :meth:`~EvaluationEngine.evaluate_uncached` seam;
3. the computed results are **merged back** into the engine's memo cache
   in one :meth:`~EvaluationEngine.cache_install_many` call (counted as
   misses), duplicate units are then resolved from the freshly warmed cache
   (counted as hits), and the results are returned in canonical unit order.

Example
-------
>>> from repro import PdnSpot, Study
>>> spot = PdnSpot()
>>> study = Study.over_tdps([4.0, 18.0, 50.0])
>>> spot.run(study) == spot.run(study)  # the second run is all cache hits
True
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.analysis.study import OverrideKey
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.util.errors import ConfigurationError

#: The point an evaluation unit is evaluated at.  Opaque to the dispatch
#: path: it only needs to be hashable (cache keys).
#: :class:`~repro.pdn.base.OperatingConditions` for the analytic engine,
#: :class:`~repro.sim.study.SimPoint` for the simulation engine.
EvalPoint = object

#: What an engine produces for one unit.  ``PdnEvaluation`` for the analytic
#: engine, ``SimulationResult`` for the simulation engine.
EvalResult = object

#: One evaluation unit: which PDN, at which point, under which
#: technology-parameter overrides.
EvalUnit = Tuple[str, EvalPoint, OverrideKey]

# Instruments bound once at import time (hot paths never do a registry
# lookup).
_MEMORY_HITS = METRICS.counter("cache.memory.hits")
_DISK_HITS = METRICS.counter("cache.disk.hits")
_LOOKUP_MISSES = METRICS.counter("cache.lookup.misses")
_CACHE_INSTALLS = METRICS.counter("cache.installs")
_CHUNKS = METRICS.counter("executor.chunks")
_COLUMNAR_CHUNKS = METRICS.counter("executor.columnar.chunks")
_COLUMNAR_UNITS = METRICS.counter("executor.columnar.units")
_SCALAR_UNITS = METRICS.counter("executor.scalar.units")


class EvaluationEngine(Protocol):
    """What an engine must provide to dispatch through :func:`evaluate_units`.

    :class:`~repro.analysis.pdnspot.PdnSpot` and
    :class:`~repro.sim.study.SimEngine` both implement this surface; the
    dispatch path never looks inside the points or results it moves
    around, so any engine whose evaluations are pure functions of
    ``(pdn name, point, overrides)`` can ride it.
    """

    @property
    def cache_enabled(self) -> bool:
        """Whether the engine memoises evaluations."""
        ...  # pragma: no cover - protocol

    def cache_key(
        self, pdn_name: str, point: EvalPoint, overrides: OverrideKey
    ) -> Tuple[object, ...]:
        """The memo-cache key of one evaluation unit."""
        ...  # pragma: no cover - protocol

    def cache_lookup_many(
        self, keys: Sequence[Tuple[object, ...]]
    ) -> List[Optional[EvalResult]]:
        """Per key, the cached result (read-only, shared) or ``None``.

        Every found key counts as one hit; a lookup of one key is a batch
        of one.
        """
        ...  # pragma: no cover - protocol

    def cache_peek_many(
        self, keys: Sequence[Tuple[object, ...]]
    ) -> List[Optional[EvalResult]]:
        """Per key, the in-memory cached result or ``None``.

        The memory tier only, so cheap enough for an event loop: every
        found key counts as one hit, a key not found counts nothing (its
        later :meth:`cache_lookup_many` counts it), and no lower tier is
        read.
        """
        ...  # pragma: no cover - protocol

    def cache_install_many(
        self, keys: Sequence[Tuple[object, ...]], results: Sequence[EvalResult]
    ) -> List[EvalResult]:
        """Merge computed results into the cache (one miss per key)."""
        ...  # pragma: no cover - protocol

    def evaluate_uncached(
        self, pdn_name: str, point: EvalPoint, overrides: OverrideKey
    ) -> EvalResult:
        """Compute one unit without touching the memo cache.

        The single-unit compute seam (the reference oracle): every unit of a
        batch that :meth:`evaluate_columns` declines lands here.
        """
        ...  # pragma: no cover - protocol

    def evaluate_columns(
        self, units: Sequence[EvalUnit]
    ) -> Optional[List[EvalResult]]:
        """Vectorized batch evaluation, or ``None`` to decline the batch.

        An engine with a batch path returns the results in unit order,
        bit-identical to calling :meth:`evaluate_uncached` per unit (the
        per-point path is the reference oracle; the equivalence suite gates
        the two), or raises the error :meth:`evaluate_uncached` would raise
        for the first failing unit.  Returning ``None`` -- for engines
        without a batch path, or with it switched off -- routes the whole
        batch through the per-point seam instead.
        """
        ...  # pragma: no cover - protocol


class MemoCacheMixin:
    """The shared in-memory memo tier of the evaluation engines.

    Implements the :meth:`cache_peek_many` / :meth:`cache_lookup_many` /
    :meth:`cache_install_many` half of the :class:`EvaluationEngine`
    protocol once, for every engine
    that keeps a locked memo dict of read-only results.  The host class
    provides the state -- ``_cache``, ``_cache_lock``, ``_cache_hits``,
    ``_cache_misses``.  A lookup hands out the shared cached result itself;
    results are never copied.

    An engine with a persistent tier behind the memo (the simulation
    engine's disk store) overrides :meth:`_lookup_below` and
    :meth:`_install_below`; the analytic engine has none.
    """

    def _lookup_below(
        self,
        keys: Sequence[Tuple[object, ...]],
        found: List[Optional[EvalResult]],
        missing: List[int],
    ) -> int:
        """Fill memory misses from a lower tier; returns how many it served."""
        return 0

    def _install_below(
        self, keys: Sequence[Tuple[object, ...]], results: Sequence[EvalResult]
    ) -> None:
        """Write computed results through to a lower tier (none by default)."""

    def _read_memory(
        self, keys: Sequence[Tuple[object, ...]]
    ) -> Tuple[List[Optional[EvalResult]], List[int]]:
        """The memory tier's result per key and the indices it missed.

        Read under one lock acquisition; the hits count once, by the
        batch's count.
        """
        with self._cache_lock:
            found = list(map(self._cache.get, keys))
            missing = [index for index, value in enumerate(found) if value is None]
            memory_hits = len(found) - len(missing)
            self._cache_hits += memory_hits
        if memory_hits:
            _MEMORY_HITS.inc(memory_hits)
        return found, missing

    def cache_peek_many(
        self, keys: Sequence[Tuple[object, ...]]
    ) -> List[Optional[EvalResult]]:
        """Per key, the memory tier's result or ``None`` (no lower tier).

        Counts each hit as :meth:`cache_lookup_many` would and no miss, so
        a key peeked, missed and then looked up counts once.
        """
        return self._read_memory(keys)[0]

    def cache_lookup_many(
        self, keys: Sequence[Tuple[object, ...]]
    ) -> List[Optional[EvalResult]]:
        """Per key, the cached result or ``None``.

        The memory tier is read under one lock acquisition; its misses go to
        :meth:`_lookup_below` as one batch.  Each cache counter ticks at most
        once per call, by the batch's count.
        """
        found, missing = self._read_memory(keys)
        disk_hits = self._lookup_below(keys, found, missing) if missing else 0
        if disk_hits:
            _DISK_HITS.inc(disk_hits)
        if len(missing) > disk_hits:
            _LOOKUP_MISSES.inc(len(missing) - disk_hits)
        return found

    def cache_install_many(
        self, keys: Sequence[Tuple[object, ...]], results: Sequence[EvalResult]
    ) -> List[EvalResult]:
        """Merge computed results into the cache (one miss per key).

        This is the merge-back half of execution: computed results become
        the shared cache masters, and :meth:`_install_below` writes the
        batch through to a lower tier when the engine has one.
        """
        with self._cache_lock:
            self._cache_misses += len(keys)
            self._cache.update(zip(keys, results))
        _CACHE_INSTALLS.inc(len(keys))
        self._install_below(keys, results)
        return list(results)


def evaluate_units(
    engine: EvaluationEngine,
    units: Iterable[EvalUnit],
    on_lookup: Optional[Callable[[int], None]] = None,
) -> List[EvalResult]:
    """Evaluate ``units`` through ``engine``, in canonical unit order.

    With the engine cache enabled, every unit's key is built once, the
    distinct keys are looked up in one call, distinct uncached units are
    computed exactly once, and the computed results are merged back into
    the cache in one call before duplicates are resolved from it.  With the
    cache disabled every unit is computed as-is (the seed-equivalent cost
    model the benchmarks rely on).

    ``on_lookup``, when given, is called once with the number of distinct
    keys that lookup served from the cache (never with the cache off).
    """
    unit_list = list(units)
    if not unit_list:
        return []
    # Spans name their engine: a simulation batch nests the analytic engine's
    # own batch for its phase points.  Stub engines go by their class name.
    tag = getattr(engine, "engine_tag", type(engine).__name__)
    if not engine.cache_enabled:
        with obs_trace.span("executor.dispatch", category="executor",
                            engine=tag, chunks=1):
            return _evaluate_chunk(engine, unit_list, tag)
    with obs_trace.span("executor.dedupe", category="executor",
                        engine=tag) as dedupe_span:
        cache_key = engine.cache_key
        keys = [cache_key(name, point, overrides)
                for name, point, overrides in unit_list]
        # Each distinct key gets an index in first-appearance order;
        # ``unit_index[slot]`` names the distinct key of each unit.
        distinct: Dict[Tuple[object, ...], int] = {}
        unit_index = [distinct.setdefault(key, len(distinct)) for key in keys]
        duplicates = len(unit_list) - len(distinct)
        if duplicates:
            first_slot = [0] * len(distinct)
            for slot in range(len(unit_list) - 1, -1, -1):
                first_slot[unit_index[slot]] = slot
        else:
            first_slot = unit_index
        distinct_keys = list(distinct)
        resolved = engine.cache_lookup_many(distinct_keys)
        pending = [index for index, result in enumerate(resolved) if result is None]
        if on_lookup is not None:
            on_lookup(len(distinct_keys) - len(pending))
        dedupe_span.set("units", len(unit_list))
        dedupe_span.set("dispatched", len(pending))
        dedupe_span.set("duplicates", duplicates)
    with obs_trace.span("executor.dispatch", category="executor",
                        engine=tag, chunks=1 if pending else 0):
        if pending:
            evaluations = _evaluate_chunk(
                engine, [unit_list[first_slot[index]] for index in pending], tag
            )
            with obs_trace.span("executor.merge_back", category="executor",
                                engine=tag, units=len(evaluations)):
                merged = engine.cache_install_many(
                    [distinct_keys[index] for index in pending], evaluations
                )
                for index, result in zip(pending, merged):
                    resolved[index] = result
    with obs_trace.span("executor.reassemble", category="executor",
                        engine=tag, duplicates=duplicates):
        if not duplicates:
            return resolved
        results = [resolved[index] for index in unit_index]
        # Duplicates read the freshly warmed cache, one hit each, exactly
        # as a unit-by-unit run would count them.
        slots = [
            slot for slot, index in enumerate(unit_index) if first_slot[index] != slot
        ]
        found = engine.cache_lookup_many([keys[slot] for slot in slots])
        if any(result is None for result in found):  # pragma: no cover
            raise ConfigurationError(
                "cache merge-back lost an evaluation; this is a bug"
            )
        for slot, result in zip(slots, found):
            results[slot] = result
    return results


def _evaluate_chunk(
    engine: EvaluationEngine, chunk: List[EvalUnit], tag: str
) -> List[EvalResult]:
    """Evaluate one chunk of units (no cache I/O), counting it.

    A columnar engine gets the whole chunk as one batch and returns
    bit-identical results in one vectorized pass per ``(pdn, overrides)``
    column block; if it declines (no batch path, or one switched off) every
    unit runs through the per-point seam.
    """
    with obs_trace.span("executor.chunk", category="executor",
                        engine=tag, units=len(chunk)) as active:
        results = engine.evaluate_columns(chunk)
        used_columnar = results is not None
        if not used_columnar:
            results = [engine.evaluate_uncached(*unit) for unit in chunk]
        active.set("columnar", used_columnar)
    _CHUNKS.inc()
    if used_columnar:
        _COLUMNAR_CHUNKS.inc()
        _COLUMNAR_UNITS.inc(len(chunk))
    else:
        _SCALAR_UNITS.inc(len(chunk))
    return results
