"""Pluggable execution backends for study grids and evaluation batches.

Every grid-shaped workload of the library reduces to one shape: an ordered
list of *evaluation units* ``(pdn_name, conditions, overrides)`` evaluated by
an engine implementing the :class:`EvaluationEngine` protocol --
:class:`~repro.analysis.pdnspot.PdnSpot` for analytic operating points
(``conditions`` is an :class:`~repro.pdn.base.OperatingConditions`) and
:class:`~repro.sim.study.SimEngine` for trace-driven simulations
(``conditions`` is a picklable :class:`~repro.sim.study.SimPoint` scenario
reference).  An :class:`Executor` turns that list into evaluations:

1. units already memoised by the engine's cache are served directly (and
   counted as hits, exactly as a serial run would count them);
2. the remaining units are **deduplicated** -- only the first occurrence of
   each distinct cache key is computed -- and sharded into deterministic
   contiguous chunks (:func:`shard`); the distinct keys are looked up in one
   :meth:`~EvaluationEngine.cache_lookup_many` call;
3. the chunks are evaluated by the backend (in-process, or on a process pool
   with picklable work units), in whatever order they complete;
4. every computed chunk is **merged back** into the engine's shared memo
   cache in one :meth:`~EvaluationEngine.cache_install_many` call (counted
   as misses), duplicate units are then resolved from
   the freshly warmed cache (counted as hits), and the results are
   reassembled in canonical unit order.

The accounting therefore matches a serial run exactly -- ``cache_info()``
after a parallel cold run reports the same hit/miss totals -- and the
returned list is ordered by the input units regardless of chunk completion
order.

Backends
--------
:class:`SerialExecutor`
    Evaluates chunks in order on the calling thread.  The default engine path
    (``executor=None``) is a one-chunk serial run.
:class:`ProcessExecutor`
    A :class:`concurrent.futures.ProcessPoolExecutor` per call.  Work units
    are picklable ``(pdn_name, conditions, overrides)`` tuples; each
    worker process rebuilds the evaluation engine once from a
    :class:`WorkerConfig` recipe and streams evaluations back.  This is the
    backend that actually parallelises the CPU-bound grid math.

Example
-------
>>> from repro import PdnSpot, Study
>>> spot = PdnSpot()
>>> study = Study.over_tdps([4.0, 18.0, 50.0])
>>> serial = spot.run(study)
>>> parallel = spot.run(study, executor="process", jobs=2)
>>> serial == parallel
True
"""

from __future__ import annotations

import copy
import os
from contextlib import closing
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.study import OverrideKey
from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pdnspot imports us)
    from repro.power.parameters import PdnTechnologyParameters

#: The point an evaluation unit is evaluated at.  Opaque to the executor
#: machinery: it only needs to be hashable (cache keys) and -- for the
#: process backend -- picklable.  :class:`~repro.pdn.base.OperatingConditions`
#: for the analytic engine, :class:`~repro.sim.study.SimPoint` for the
#: simulation engine.
EvalPoint = object

#: What an engine produces for one unit.  ``PdnEvaluation`` for the analytic
#: engine, ``SimulationResult`` for the simulation engine.
EvalResult = object

#: One evaluation unit: which PDN, at which point, under which
#: technology-parameter overrides.
EvalUnit = Tuple[str, EvalPoint, OverrideKey]

#: What a process-pool worker ships back per chunk: the chunk's results in
#: unit order, whether the columnar path evaluated them, the worker's drained
#: trace-span batch (empty when tracing is disabled) and the worker's
#: counter deltas over the chunk (merged into the parent's registry).
WorkerChunkPayload = Tuple[
    List[EvalResult], bool, List["obs_trace.SpanRecord"], Dict[str, int]
]

# Instruments bound once at import time (hot paths never do a registry
# lookup).  Cache-tier counters tick on the parent side of any fork --
# `TwoTierCacheMixin` only ever runs in the dispatching process.
_MEMORY_HITS = METRICS.counter("cache.memory.hits")
_DISK_HITS = METRICS.counter("cache.disk.hits")
_LOOKUP_MISSES = METRICS.counter("cache.lookup.misses")
_CACHE_INSTALLS = METRICS.counter("cache.installs")
_CHUNKS = METRICS.counter("executor.chunks")
_COLUMNAR_CHUNKS = METRICS.counter("executor.columnar.chunks")
_COLUMNAR_UNITS = METRICS.counter("executor.columnar.units")
_SCALAR_UNITS = METRICS.counter("executor.scalar.units")


class WorkerRecipe(Protocol):
    """A picklable recipe for rebuilding an engine inside a worker process."""

    def build_engine(self) -> "EvaluationEngine":
        """Build the worker-local (uncached) engine."""
        ...  # pragma: no cover - protocol


class EvaluationEngine(Protocol):
    """What an engine must provide to dispatch through an :class:`Executor`.

    :class:`~repro.analysis.pdnspot.PdnSpot` and
    :class:`~repro.sim.study.SimEngine` both implement this surface; the
    executor machinery never looks inside the points or results it moves
    around, so any engine whose evaluations are pure functions of
    ``(pdn name, point, overrides)`` can ride the same backends.
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

    def cache_install_many(
        self, keys: Sequence[Tuple[object, ...]], results: Sequence[EvalResult]
    ) -> List[EvalResult]:
        """Merge computed results into the cache (one miss per key)."""
        ...  # pragma: no cover - protocol

    def evaluate_uncached(
        self, pdn_name: str, point: EvalPoint, overrides: OverrideKey
    ) -> EvalResult:
        """Compute one unit without touching the memo cache.

        The single-unit compute seam (the reference oracle): every dispatched
        unit that cannot ride :meth:`evaluate_columns` lands here.
        """
        ...  # pragma: no cover - protocol

    @property
    def columnar_enabled(self) -> bool:
        """Whether executors plan this engine's shards as column blocks.

        Executors consult this *before* sharding: a columnar-capable engine
        gets its tasks grouped into whole column blocks (one ``(pdn,
        overrides)`` run of units per stretch) and larger minimum chunk
        sizes, because a vectorized pass amortises per-batch overhead that a
        per-point engine does not have.  It does not gate
        :meth:`evaluate_columns`, which every chunk is offered.
        """
        ...  # pragma: no cover - protocol

    def evaluate_columns(
        self, units: Sequence[EvalUnit]
    ) -> Optional[List[EvalResult]]:
        """Vectorized batch evaluation, or ``None`` to decline the batch.

        The capability half of the columnar negotiation: an engine that can
        evaluate ``units`` as column arrays returns the results in unit
        order, bit-identical to calling :meth:`evaluate_uncached` per unit
        (the per-point path is the reference oracle; the equivalence suite
        gates the two).  Returning ``None`` -- always, for engines without a
        batch path, or per batch, when the engine cannot take it (a disabled
        columnar core, a patched engine seam) -- routes the whole batch
        through the per-point seam instead.
        """
        ...  # pragma: no cover - protocol

    def worker_config(self) -> WorkerRecipe:
        """The picklable recipe process-pool workers rebuild the engine from."""
        ...  # pragma: no cover - protocol


class TwoTierCacheMixin:
    """Shared memory-then-disk cache fall-through for evaluation engines.

    Implements the :meth:`cache_lookup_many` / :meth:`cache_install_many`
    half of the :class:`EvaluationEngine` protocol once, for every engine
    that keeps a
    locked in-memory memo dict in front of an optional
    :class:`~repro.cache.DiskCache`.  The host class provides the state --
    ``_cache``, ``_cache_lock``, ``_cache_hits``, ``_cache_misses``,
    ``_disk_cache`` -- plus two hooks:

    ``_payload_type``
        The payload class disk entries must be to count as hits (guards
        against a foreign entry landing at an engine's address).
    ``_copy_cached(value)``
        What a lookup hands out for a cached master: a caller-owned copy
        for mutable payloads, or the shared master itself where payloads
        are read-only (the analytic engine's evaluations).

    Engines whose on-disk address differs from the memo key (the simulation
    engine's trace digest) additionally override :meth:`_disk_key`.
    """

    #: Disk payloads of any other type are treated as misses.
    _payload_type: type = object

    def _disk_key(self, key: Tuple[object, ...]) -> Tuple[object, ...]:
        """The on-disk address of one unit (defaults to the memo key)."""
        return key

    def _copy_cached(self, value: EvalResult) -> EvalResult:
        """What a lookup hands out for a cached master (host engines override)."""
        raise NotImplementedError  # pragma: no cover - host engines override

    def cache_lookup_many(
        self, keys: Sequence[Tuple[object, ...]]
    ) -> List[Optional[EvalResult]]:
        """Per key, the cached result (via :meth:`_copy_cached`) or ``None``.

        The memory tier is read under one lock acquisition.  Each memory
        miss falls through to the attached :class:`~repro.cache.DiskCache`
        (when there is one), key by key; a disk hit is promoted into the
        memory cache so later lookups skip the filesystem, and both tiers'
        hits are counted identically.  Each cache counter ticks at most once
        per call, by the batch's count.
        """
        with self._cache_lock:
            found = list(map(self._cache.get, keys))
            missing = [index for index, value in enumerate(found) if value is None]
            memory_hits = len(found) - len(missing)
            self._cache_hits += memory_hits
            if memory_hits:
                copy = self._copy_cached
                found = [None if value is None else copy(value) for value in found]
        if memory_hits:
            _MEMORY_HITS.inc(memory_hits)
        disk_hits = 0
        if self._disk_cache is not None:
            for index in missing:
                promoted = self._disk_lookup(keys[index])
                if promoted is not None:
                    found[index] = promoted
                    disk_hits += 1
        if disk_hits:
            _DISK_HITS.inc(disk_hits)
        if len(missing) > disk_hits:
            _LOOKUP_MISSES.inc(len(missing) - disk_hits)
        return found

    def _disk_lookup(self, key: Tuple[object, ...]) -> Optional[EvalResult]:
        """One memory miss served from disk and promoted (hit-counted), or ``None``."""
        disk_key = self._disk_key(key)
        payload = self._disk_cache.get(disk_key)
        if payload is None:
            return None
        if not isinstance(payload, self._payload_type):
            # Structurally valid entry, wrong payload class (e.g. written by
            # a code version that changed the payload type without bumping
            # the format version): heal it like corruption, loudly.
            self._disk_cache.discard(
                disk_key,
                f"payload is {type(payload).__name__}, "
                f"expected {self._payload_type.__name__}",
            )
            return None
        with self._cache_lock:
            master = self._cache.setdefault(key, payload)
            self._cache_hits += 1
            return self._copy_cached(master)

    def cache_install_many(
        self, keys: Sequence[Tuple[object, ...]], results: Sequence[EvalResult]
    ) -> List[EvalResult]:
        """Merge computed results into the cache (one miss per key).

        This is the merge-back half of execution: computed results become
        shared cache masters and the caller gets, per key, what a serial
        miss would have produced (see :meth:`_copy_cached`).  With a disk
        store attached every result is also written through, entry by
        entry, so later processes start warm.
        """
        with self._cache_lock:
            self._cache_misses += len(keys)
            self._cache.update(zip(keys, results))
            copies = list(map(self._copy_cached, results))
        _CACHE_INSTALLS.inc(len(keys))
        if self._disk_cache is not None:
            for key, result in zip(keys, results):
                self._disk_cache.put(self._disk_key(key), result)
        return copies


def default_jobs() -> int:
    """The default worker count: the machine's CPU count (at least one)."""
    return os.cpu_count() or 1


def _check_jobs(jobs: Optional[int]) -> None:
    """Reject a ``jobs`` value that is not ``None`` or a positive ``int``."""
    if jobs is None:
        return
    if isinstance(jobs, bool) or not isinstance(jobs, int):
        raise ConfigurationError(
            f"jobs must be a positive int, got {type(jobs).__name__} {jobs!r}"
        )
    if jobs < 1:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")


def shard(items: Sequence[object], shards: int) -> List[List[object]]:
    """Split ``items`` into at most ``shards`` deterministic contiguous chunks.

    Chunk sizes differ by at most one and the concatenation of the chunks is
    the input sequence, so the sharding is reproducible for a given
    ``(items, shards)`` pair -- completion order may vary, assignment never
    does.  Empty chunks are never produced.
    """
    if shards < 1:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    count = min(shards, len(items))
    if count == 0:
        return []
    base, extra = divmod(len(items), count)
    chunks: List[List[object]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


@dataclass(frozen=True)
class WorkerConfig:
    """A picklable recipe for rebuilding the analytic engine in a worker.

    Process-pool workers cannot share the parent's
    :class:`~repro.analysis.pdnspot.PdnSpot`; they receive this config
    through the pool initializer and build their own (uncached -- chunks are
    already deduplicated) engine once per process.  Other engines provide
    their own :class:`WorkerRecipe` (e.g.
    :class:`repro.sim.study.SimWorkerConfig`).
    """

    parameters: "PdnTechnologyParameters"
    pdn_names: Tuple[str, ...]
    baseline_name: str
    #: Whether the rebuilt engine keeps the vectorized columnar path enabled
    #: (mirrors the parent engine's setting, so worker shards take the same
    #: fast path the parent would have).
    columnar: bool = True

    def build_engine(self) -> "EvaluationEngine":
        """Build the worker-local evaluation engine."""
        from repro.analysis.pdnspot import PdnSpot

        return PdnSpot(
            parameters=self.parameters,
            pdn_names=list(self.pdn_names),
            baseline_name=self.baseline_name,
            enable_cache=False,
            columnar=self.columnar,
        )


# Worker-process state, set once by :func:`_init_worker`.
_WORKER_ENGINE: Optional["EvaluationEngine"] = None


def _init_worker(config: WorkerRecipe, tracing: bool = False) -> None:
    """Process-pool initializer: build the worker-local engine once.

    With ``tracing`` set (the parent had a tracer installed at dispatch
    time) the worker installs its own :class:`~repro.obs.trace.Tracer`;
    its spans are drained per chunk and shipped back in the
    :data:`WorkerChunkPayload`, so one exported trace covers the fork
    boundary with correct worker pids.
    """
    global _WORKER_ENGINE
    _WORKER_ENGINE = config.build_engine()
    if tracing:
        obs_trace.install_tracer()


def _evaluate_chunk(chunk: List[EvalUnit]) -> WorkerChunkPayload:
    """Evaluate one chunk of units in a worker process.

    Returns the results in unit order together with the columnar flag
    (counted by the *parent*, whose metrics registry survives the pool),
    the worker tracer's drained span batch and the worker's counter deltas
    over this chunk (the columnar-block and calibration counters tick here,
    in the worker, and would otherwise be lost with it).
    """
    if _WORKER_ENGINE is None:  # pragma: no cover - initializer always runs first
        raise ConfigurationError("worker process was not initialised")
    before = METRICS.counter_values()
    with obs_trace.span("executor.chunk", category="executor",
                        units=len(chunk)) as active:
        results, used_columnar = _compute_chunk(_WORKER_ENGINE, chunk)
        active.set("columnar", used_columnar)
    deltas = {
        name: value - before.get(name, 0)
        for name, value in METRICS.counter_values().items()
        if value != before.get(name, 0)
    }
    tracer = obs_trace.active_tracer()
    spans = tracer.drain() if tracer is not None else []
    return results, used_columnar, spans, deltas


class Executor(ABC):
    """Base class of the pluggable execution backends.

    Parameters
    ----------
    jobs:
        Worker count; defaults to :func:`default_jobs`.  The unit list is
        sharded into at most this many chunks.
    """

    #: Registry name of the backend (``serial``/``process``).
    name: ClassVar[str] = ""

    def __init__(self, jobs: Optional[int] = None):
        _check_jobs(jobs)
        self._jobs = jobs

    @property
    def jobs(self) -> int:
        """The effective worker count."""
        return self._jobs if self._jobs is not None else default_jobs()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(jobs={self.jobs})"

    # ------------------------------------------------------------------ #
    # The shard / evaluate / merge / reassemble driver
    # ------------------------------------------------------------------ #
    def evaluate_units(
        self,
        engine: EvaluationEngine,
        units: Iterable[EvalUnit],
        on_lookup: Optional[Callable[[int], None]] = None,
    ) -> List[EvalResult]:
        """Evaluate ``units`` through this backend, in canonical unit order.

        With the engine cache enabled, every unit's key is built once, the
        distinct keys are looked up in one call, distinct uncached units are
        computed exactly once across all workers, and each computed chunk is
        merged back into the shared cache in one call before duplicates are
        resolved from it.  With the cache disabled every unit is dispatched
        as-is (the seed-equivalent cost model the benchmarks rely on).

        ``on_lookup``, when given, is called once with the number of distinct
        keys that lookup served from the cache (never with the cache off).
        """
        unit_list = list(units)
        if not unit_list:
            return []
        if not engine.cache_enabled:
            results: List[Optional[EvalResult]] = [None] * len(unit_list)
            with closing(self._dispatch(engine, unit_list)) as completed:
                for positions, evaluations in completed:
                    for position, evaluation in zip(positions, evaluations):
                        results[position] = evaluation
            if any(result is None for result in results):  # pragma: no cover
                raise ConfigurationError(
                    f"executor {self.name!r} returned no result for some units"
                )
            return results
        with obs_trace.span("executor.dedupe", category="executor",
                            backend=self.name) as dedupe_span:
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
        pending_units = [unit_list[first_slot[index]] for index in pending]
        installed = 0
        with closing(self._dispatch(engine, pending_units)) as completed:
            for positions, evaluations in completed:
                with obs_trace.span("executor.merge_back", category="executor",
                                    units=len(evaluations)):
                    chunk = [pending[position] for position in positions]
                    merged = engine.cache_install_many(
                        [distinct_keys[index] for index in chunk], evaluations
                    )
                    for index, result in zip(chunk, merged):
                        resolved[index] = result
                    installed += len(chunk)
        if installed != len(pending):  # pragma: no cover - a backend dropped work
            raise ConfigurationError(
                f"executor {self.name!r} returned no result for "
                f"{len(pending) - installed} units"
            )
        with obs_trace.span("executor.reassemble", category="executor",
                            duplicates=duplicates):
            if not duplicates:
                return resolved
            results = [resolved[index] for index in unit_index]
            # Duplicates read the freshly warmed cache, one hit each, exactly
            # as a unit-by-unit serial run would count them.
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

    def _dispatch(
        self, engine: EvaluationEngine, units: List[EvalUnit]
    ) -> Iterator[Tuple[List[int], List[EvalResult]]]:
        """Shard ``units``, evaluate the chunks, and yield each as it completes.

        Yields ``(positions, results)``: the chunk's positions in ``units``
        and its results in the same order.  Callers merge each chunk while
        the ``executor.dispatch`` span is open, and close the generator when
        they stop (``contextlib.closing``), so the span and the backend's
        pool end in order even when a merge raises.
        """
        plan = self._plan_shards(engine, units)
        chunks = [[units[position] for position in positions] for positions in plan]
        with obs_trace.span("executor.dispatch", category="executor",
                            backend=self.name, jobs=self.jobs,
                            chunks=len(chunks)):
            for index, results in self._run_chunks(engine, chunks):
                yield plan[index], results

    def _plan_shards(
        self, engine: EvaluationEngine, units: Sequence[EvalUnit]
    ) -> List[List[int]]:
        """The chunks, as positions in ``units``, this backend dispatches.

        For per-point engines this is the historical plan: input order,
        sharded into up to ``jobs`` contiguous chunks.  For columnar-capable
        engines the shard count is capped so no chunk drops below
        :data:`MIN_COLUMNAR_CHUNK` units (a vectorized pass over a sliver is
        all fixed overhead), and with more than one shard the units are
        first grouped by ``(pdn name, overrides)`` -- stable within each
        group, groups in first-appearance order -- so contiguous chunks
        become whole column blocks.  One shard keeps input order: the
        engine's :meth:`~EvaluationEngine.evaluate_columns` does the
        grouping.  Both plans are deterministic functions of ``(engine
        capability, units, jobs)``.
        """
        if not engine.columnar_enabled:
            return shard(range(len(units)), self.jobs)
        shards = min(self.jobs, max(1, len(units) // MIN_COLUMNAR_CHUNK))
        if shards == 1:
            return shard(range(len(units)), 1)
        groups: Dict[Tuple[str, OverrideKey], List[int]] = {}
        for position, (name, _, overrides) in enumerate(units):
            groups.setdefault((name, overrides), []).append(position)
        return shard([p for group in groups.values() for p in group], shards)

    @abstractmethod
    def _run_chunks(
        self, engine: EvaluationEngine, chunks: List[List[EvalUnit]]
    ) -> Iterator[Tuple[int, List[EvalResult]]]:
        """Evaluate every chunk, yielding ``(chunk index, results)`` in any order."""


#: Minimum units per chunk when the engine evaluates columns: below this a
#: chunk's vectorized pass is dominated by its fixed per-batch overhead, so
#: the planner prefers fewer, fatter shards (worker start-up costs more than
#: the lost overlap).
MIN_COLUMNAR_CHUNK = 128


def _evaluate_chunk_in_process(
    engine: EvaluationEngine, chunk: List[EvalUnit]
) -> List[EvalResult]:
    """Evaluate one chunk against the caller's own engine (no cache I/O).

    This is where the columnar negotiation happens, once per chunk: a
    columnar-capable engine gets the whole chunk as one batch and returns
    bit-identical results in one vectorized pass per ``(pdn, overrides)``
    column block; if it declines (no capability, patched models, points that
    resist columnarisation) every unit runs through the per-point seam.
    """
    with obs_trace.span("executor.chunk", category="executor",
                        units=len(chunk)) as active:
        results, used_columnar = _compute_chunk(engine, chunk)
        active.set("columnar", used_columnar)
    _note_chunk(len(chunk), used_columnar)
    return results


def _compute_chunk(
    engine: EvaluationEngine, chunk: List[EvalUnit]
) -> Tuple[List[EvalResult], bool]:
    """Run the columnar negotiation for one chunk.

    Returns the results in unit order plus whether the engine's vectorized
    columnar path produced them (``False`` means every unit went through
    the per-point seam).
    """
    evaluations = engine.evaluate_columns(chunk)
    if evaluations is not None:
        return evaluations, True
    return [engine.evaluate_uncached(*unit) for unit in chunk], False


def _note_chunk(units: int, used_columnar: bool) -> None:
    """Count one evaluated chunk in the dispatching process's registry."""
    _CHUNKS.inc()
    if used_columnar:
        _COLUMNAR_CHUNKS.inc()
        _COLUMNAR_UNITS.inc(units)
    else:
        _SCALAR_UNITS.inc(units)


class SerialExecutor(Executor):
    """Evaluate chunks sequentially on the calling thread.

    Functionally identical to the engine's default path; useful as the
    explicit baseline the parallel backends are checked against, and as the
    ``--executor serial`` CLI spelling.
    """

    name = "serial"

    def _run_chunks(
        self, engine: EvaluationEngine, chunks: List[List[EvalUnit]]
    ) -> Iterator[Tuple[int, List[EvalResult]]]:
        for index, chunk in enumerate(chunks):
            yield index, _evaluate_chunk_in_process(engine, chunk)


class ProcessExecutor(Executor):
    """Evaluate chunks on a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Each worker process rebuilds the evaluation engine once from the
    caller's :class:`WorkerConfig` (pool initializer), then evaluates
    picklable unit chunks; evaluations stream back to the parent, which owns
    the cache merge, together with each chunk's trace spans and counter
    deltas.  Worker start-up (interpreter fork/spawn plus the FlexWatts
    predictor calibration) costs tens of milliseconds per worker, so this
    backend pays off on grids whose serial cost dwarfs that.
    """

    name = "process"

    def _run_chunks(
        self, engine: EvaluationEngine, chunks: List[List[EvalUnit]]
    ) -> Iterator[Tuple[int, List[EvalResult]]]:
        if len(chunks) <= 1:
            # One chunk cannot overlap with anything; skip the pool start-up.
            for index, chunk in enumerate(chunks):
                yield index, _evaluate_chunk_in_process(engine, chunk)
            return
        from concurrent import futures

        config = engine.worker_config()
        tracing = obs_trace.tracing_enabled()
        with futures.ProcessPoolExecutor(
            max_workers=len(chunks),
            initializer=_init_worker,
            initargs=(config, tracing),
        ) as pool:
            submitted = {
                pool.submit(_evaluate_chunk, chunk): index
                for index, chunk in enumerate(chunks)
            }
            for future in futures.as_completed(submitted):
                results, used_columnar, spans, deltas = future.result()
                _note_chunk(len(results), used_columnar)
                METRICS.absorb_counters(deltas)
                tracer = obs_trace.active_tracer()
                if spans and tracer is not None:
                    tracer.absorb(spans)
                yield submitted[future], results


#: Registry of the built-in backends, keyed by their CLI/``make_executor`` name.
EXECUTORS: Dict[str, Callable[..., Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ProcessExecutor.name: ProcessExecutor,
}

#: What an ``executor=`` argument may be: a backend instance, a registry name,
#: or ``None`` (engine default).
ExecutorLike = Union[Executor, str, None]


def make_executor(
    executor: ExecutorLike = None, jobs: Optional[int] = None
) -> Optional[Executor]:
    """Resolve an ``executor=`` argument into a backend instance.

    ``None`` with no ``jobs`` (or ``jobs=1``) keeps the engine's default
    serial path; ``None`` with ``jobs > 1`` selects :class:`ProcessExecutor`
    (the backend that parallelises this CPU-bound workload); a string is
    looked up in :data:`EXECUTORS`; an :class:`Executor` instance is passed
    through unchanged (``jobs`` must then be ``None`` or match).
    """
    _check_jobs(jobs)
    if executor is None:
        if jobs is None or jobs == 1:
            return None
        return ProcessExecutor(jobs=jobs)
    if isinstance(executor, Executor):
        if jobs is None:
            return executor
        if executor._jobs is None:
            # The instance never chose a worker count; adopt the explicit one
            # rather than comparing against the machine-dependent default.  A
            # copy (not reconstruction) keeps subclass state intact.
            adopted = copy.copy(executor)
            adopted._jobs = jobs
            return adopted
        if jobs != executor._jobs:
            raise ConfigurationError(
                f"jobs={jobs} conflicts with {executor!r}; configure the "
                "executor's jobs directly"
            )
        return executor
    if isinstance(executor, str):
        try:
            factory = EXECUTORS[executor]
        except KeyError:
            raise ConfigurationError(
                f"unknown executor {executor!r}; choose from: "
                f"{', '.join(sorted(EXECUTORS))}"
            ) from None
        return factory(jobs=jobs)
    raise ConfigurationError(
        f"executor must be None, a name, or an Executor instance, "
        f"got {type(executor).__name__}"
    )
