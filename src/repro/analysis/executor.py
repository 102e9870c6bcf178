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
   contiguous chunks (:func:`shard`);
3. the chunks are evaluated by the backend (in-process, a thread pool, or a
   process pool with picklable work units), in whatever order they complete;
4. every computed evaluation is **merged back** into the engine's shared
   memo cache (counted as misses), duplicate units are then resolved from
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
    (``executor=None``) is equivalent but skips the sharding machinery.
:class:`ThreadExecutor`
    A :class:`concurrent.futures.ThreadPoolExecutor` per call.  The PDN
    models are pure Python, so the GIL serialises the actual math; threads
    mainly help when evaluations are interleaved with other blocking work.
:class:`ProcessExecutor`
    A :class:`concurrent.futures.ProcessPoolExecutor` per call.  Work units
    are picklable ``(slot, pdn_name, conditions, overrides)`` tuples; each
    worker process rebuilds the evaluation engine once from a
    :class:`WorkerConfig` recipe and streams evaluations back.  This is the
    backend that actually parallelises the CPU-bound grid math.

Example
-------
>>> from repro import PdnSpot, Study
>>> spot = PdnSpot()
>>> study = Study.over_tdps([4.0, 18.0, 50.0])
>>> serial = spot.run(study)
>>> parallel = spot.run(study, executor="thread", jobs=2)
>>> serial == parallel
True
"""

from __future__ import annotations

import asyncio
import copy
import os
from abc import ABC, abstractmethod
from concurrent import futures
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

#: A dispatchable task: an evaluation unit tagged with its result slot.
Task = Tuple[int, str, EvalPoint, OverrideKey]

#: A completed chunk: ``(slot, result)`` pairs, in any order.
ChunkResult = List[Tuple[int, EvalResult]]

#: What a process-pool worker ships back per chunk: the result pairs,
#: whether the columnar path evaluated them, and the worker's drained
#: trace-span batch (empty when tracing is disabled).
WorkerChunkPayload = Tuple[ChunkResult, bool, List["obs_trace.SpanRecord"]]

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

    def cache_lookup(self, key: Tuple[object, ...]) -> Optional[EvalResult]:
        """A caller-owned copy of a cached result, or ``None`` (hit-counted)."""
        ...  # pragma: no cover - protocol

    def cache_install(self, key: Tuple[object, ...], result: EvalResult) -> EvalResult:
        """Merge one computed result into the cache (miss-counted)."""
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

    def prime_for_execution(self, units: Iterable[EvalUnit]) -> None:
        """Build lazily initialised shared state before workers run."""
        ...  # pragma: no cover - protocol

    def worker_config(self) -> WorkerRecipe:
        """The picklable recipe process-pool workers rebuild the engine from."""
        ...  # pragma: no cover - protocol


class TwoTierCacheMixin:
    """Shared memory-then-disk cache fall-through for evaluation engines.

    Implements the :meth:`cache_lookup` / :meth:`cache_install` half of the
    :class:`EvaluationEngine` protocol once, for every engine that keeps a
    locked in-memory memo dict in front of an optional
    :class:`~repro.cache.DiskCache`.  The host class provides the state --
    ``_cache``, ``_cache_lock``, ``_cache_hits``, ``_cache_misses``,
    ``_disk_cache`` -- plus two hooks:

    ``_copy_cached(value)``
        A caller-owned copy of a cached payload (cached masters are shared).
    ``_payload_type``
        The payload class disk entries must be to count as hits (guards
        against a foreign entry landing at an engine's address).

    Engines whose on-disk address differs from the memo key (the simulation
    engine's trace digest) additionally override :meth:`_disk_key`.
    """

    #: Disk payloads of any other type are treated as misses.
    _payload_type: type = object

    def _disk_key(self, key: Tuple[object, ...]) -> Tuple[object, ...]:
        """The on-disk address of one unit (defaults to the memo key)."""
        return key

    def _copy_cached(self, value: EvalResult) -> EvalResult:
        """A caller-owned copy of a cached payload (host engines override)."""
        raise NotImplementedError  # pragma: no cover - host engines override

    def cache_lookup(self, key: Tuple[object, ...]) -> Optional[EvalResult]:
        """A caller-owned copy of a cached result, or ``None`` (hit-counted).

        A memory miss falls through to the attached
        :class:`~repro.cache.DiskCache` (when there is one); a disk hit is
        promoted into the memory cache so later lookups skip the
        filesystem, and both tiers' hits are counted identically.
        """
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache_hits += 1
                _MEMORY_HITS.inc()
                return self._copy_cached(cached)
        if self._disk_cache is None:
            _LOOKUP_MISSES.inc()
            return None
        disk_key = self._disk_key(key)
        payload = self._disk_cache.get(disk_key)
        if payload is None:
            _LOOKUP_MISSES.inc()
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
            _LOOKUP_MISSES.inc()
            return None
        with self._cache_lock:
            master = self._cache.setdefault(key, payload)
            self._cache_hits += 1
            _DISK_HITS.inc()
            return self._copy_cached(master)

    def cache_install(
        self, key: Tuple[object, ...], result: EvalResult
    ) -> EvalResult:
        """Merge one computed result into the cache (counted as a miss).

        This is the merge-back half of parallel execution: worker-computed
        results become shared cache masters and the caller gets the same
        caller-owned copy a serial miss would have produced.  With a disk
        store attached the result is also written through, so later
        processes start warm.
        """
        with self._cache_lock:
            self._cache_misses += 1
            self._cache[key] = result
            copy = self._copy_cached(result)
        _CACHE_INSTALLS.inc()
        if self._disk_cache is not None:
            self._disk_cache.put(self._disk_key(key), result)
        return copy


def default_jobs() -> int:
    """The default worker count: the machine's CPU count (at least one)."""
    return os.cpu_count() or 1


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

    # Backwards-compatible spelling from when the recipe was PdnSpot-only.
    build_spot = build_engine


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


def _evaluate_chunk(chunk: List[Task]) -> WorkerChunkPayload:
    """Evaluate one task chunk in a worker process.

    Returns the ``(slot, result)`` pairs together with the columnar flag
    (counted by the *parent*, whose metrics registry survives the pool)
    and the worker tracer's drained span batch.
    """
    if _WORKER_ENGINE is None:  # pragma: no cover - initializer always runs first
        raise ConfigurationError("worker process was not initialised")
    with obs_trace.span("executor.chunk", category="executor",
                        units=len(chunk)) as active:
        pairs, used_columnar = _compute_chunk(_WORKER_ENGINE, chunk)
        active.set("columnar", used_columnar)
    tracer = obs_trace.active_tracer()
    spans = tracer.drain() if tracer is not None else []
    return pairs, used_columnar, spans


class Executor(ABC):
    """Base class of the pluggable execution backends.

    Parameters
    ----------
    jobs:
        Worker count; defaults to :func:`default_jobs`.  The unit list is
        sharded into at most this many chunks.
    """

    #: Registry name of the backend (``serial``/``thread``/``process``).
    name: ClassVar[str] = ""

    #: Whether chunks evaluate against the caller's own PDN models.  True for
    #: the in-process backends (serial/thread), whose workers need the
    #: caller's lazily built state primed first; process workers rebuild
    #: their own engines, so parent-side priming would be wasted work.
    uses_parent_models: ClassVar[bool] = True

    def __init__(self, jobs: Optional[int] = None):
        if jobs is not None and jobs < 1:
            raise ConfigurationError(f"executor jobs must be positive, got {jobs}")
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
        self, engine: EvaluationEngine, units: Iterable[EvalUnit]
    ) -> List[EvalResult]:
        """Evaluate ``units`` through this backend, in canonical unit order.

        With the engine cache enabled, already-cached units are served
        immediately, distinct uncached units are computed exactly once across
        all workers, and every computed evaluation is merged back into the
        shared cache before duplicates are resolved from it.  With the cache
        disabled every unit is dispatched as-is (the seed-equivalent cost
        model the benchmarks rely on).
        """
        unit_list = list(units)
        if not unit_list:
            return []
        results: List[Optional[EvalResult]] = [None] * len(unit_list)
        if engine.cache_enabled:
            primaries: Dict[Tuple[object, ...], int] = {}
            duplicates: List[Tuple[int, Tuple[object, ...]]] = []
            with obs_trace.span("executor.dedupe", category="executor",
                                backend=self.name) as dedupe_span:
                for slot, (name, point, overrides) in enumerate(unit_list):
                    key = engine.cache_key(name, point, overrides)
                    if key in primaries:
                        duplicates.append((slot, key))
                        continue
                    cached = engine.cache_lookup(key)
                    if cached is not None:
                        results[slot] = cached
                    else:
                        primaries[key] = slot
                dedupe_span.set("units", len(unit_list))
                dedupe_span.set("dispatched", len(primaries))
                dedupe_span.set("duplicates", len(duplicates))
            tasks: List[Task] = [(slot, *unit_list[slot]) for slot in primaries.values()]
            chunks = shard(*self._plan_shards(engine, tasks))
            if self.uses_parent_models or len(chunks) == 1:
                # Only the dispatched units need their models primed (a fully
                # warm batch never reaches the workers); the single-chunk case
                # covers the process backend's in-process fallback.
                engine.prime_for_execution(
                    unit_list[slot] for slot in primaries.values()
                )
            with obs_trace.span("executor.dispatch", category="executor",
                                backend=self.name, jobs=self.jobs,
                                chunks=len(chunks)):
                for chunk_result in self._run_chunks(engine, chunks):
                    with obs_trace.span("executor.merge_back",
                                        category="executor",
                                        units=len(chunk_result)):
                        for slot, evaluation in chunk_result:
                            name, point, overrides = unit_list[slot]
                            key = engine.cache_key(name, point, overrides)
                            results[slot] = engine.cache_install(key, evaluation)
            with obs_trace.span("executor.reassemble", category="executor",
                                duplicates=len(duplicates)):
                for slot, key in duplicates:
                    resolved = engine.cache_lookup(key)
                    if resolved is None:  # pragma: no cover - install precedes this
                        raise ConfigurationError(
                            "cache merge-back lost an evaluation; this is a bug"
                        )
                    results[slot] = resolved
        else:
            tasks = [(slot, *unit) for slot, unit in enumerate(unit_list)]
            chunks = shard(*self._plan_shards(engine, tasks))
            if self.uses_parent_models or len(chunks) == 1:
                engine.prime_for_execution(unit_list)
            with obs_trace.span("executor.dispatch", category="executor",
                                backend=self.name, jobs=self.jobs,
                                chunks=len(chunks)):
                for chunk_result in self._run_chunks(engine, chunks):
                    for slot, evaluation in chunk_result:
                        results[slot] = evaluation
        missing = [slot for slot, result in enumerate(results) if result is None]
        if missing:  # pragma: no cover - defensive: a backend dropped work
            raise ConfigurationError(
                f"executor {self.name!r} returned no result for {len(missing)} units"
            )
        return results

    def _plan_shards(
        self, engine: EvaluationEngine, tasks: List[Task]
    ) -> Tuple[List[Task], int]:
        """The (task order, shard count) this backend dispatches with.

        For per-point engines this is the historical plan: input order,
        sharded into up to ``jobs`` contiguous chunks.  For columnar-capable
        engines the tasks are first grouped by ``(pdn name, overrides)`` --
        stable within each group, groups in first-appearance order -- so
        contiguous chunks become whole column blocks, and the shard count is
        capped so no chunk drops below :data:`MIN_COLUMNAR_CHUNK` units
        (a vectorized pass over a sliver is all fixed overhead).  Both plans
        are deterministic functions of ``(engine capability, tasks, jobs)``.
        """
        if not getattr(engine, "columnar_enabled", False):
            return tasks, self.jobs
        groups: Dict[Tuple[str, OverrideKey], List[Task]] = {}
        for task in tasks:
            groups.setdefault((task[1], task[3]), []).append(task)
        ordered = [task for group in groups.values() for task in group]
        shards = min(self.jobs, max(1, len(ordered) // MIN_COLUMNAR_CHUNK))
        return ordered, shards

    @abstractmethod
    def _run_chunks(
        self, engine: EvaluationEngine, chunks: List[List[Task]]
    ) -> Iterator[ChunkResult]:
        """Evaluate every chunk, yielding completed chunks in any order."""


#: Minimum units per chunk when the engine evaluates columns: below this a
#: chunk's vectorized pass is dominated by its fixed per-batch overhead, so
#: the planner prefers fewer, fatter shards (worker start-up costs more than
#: the lost overlap).
MIN_COLUMNAR_CHUNK = 128


def _evaluate_chunk_in_process(
    engine: EvaluationEngine, chunk: List[Task]
) -> ChunkResult:
    """Evaluate one task chunk against the caller's own engine (no cache I/O).

    This is where the columnar negotiation happens, once per chunk: a
    columnar-capable engine gets the whole chunk as one batch and returns
    bit-identical results in one vectorized pass per ``(pdn, overrides)``
    column block; if it declines (no capability, patched models, points that
    resist columnarisation) every unit runs through the per-point seam.
    """
    with obs_trace.span("executor.chunk", category="executor",
                        units=len(chunk)) as active:
        pairs, used_columnar = _compute_chunk(engine, chunk)
        active.set("columnar", used_columnar)
    _note_chunk(len(chunk), used_columnar)
    return pairs


def _compute_chunk(
    engine: EvaluationEngine, chunk: List[Task]
) -> Tuple[ChunkResult, bool]:
    """Run the columnar negotiation for one chunk.

    Returns the ``(slot, result)`` pairs plus whether the engine's
    vectorized columnar path produced them (``False`` means every unit
    went through the per-point seam).
    """
    evaluate_columns = getattr(engine, "evaluate_columns", None)
    if evaluate_columns is not None:
        evaluations = evaluate_columns([task[1:] for task in chunk])
        if evaluations is not None:
            return (
                [(task[0], result) for task, result in zip(chunk, evaluations)],
                True,
            )
    return (
        [
            (slot, engine.evaluate_uncached(name, point, overrides))
            for slot, name, point, overrides in chunk
        ],
        False,
    )


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
        self, engine: EvaluationEngine, chunks: List[List[Task]]
    ) -> Iterator[ChunkResult]:
        for chunk in chunks:
            yield _evaluate_chunk_in_process(engine, chunk)


class ThreadExecutor(Executor):
    """Evaluate chunks on a :class:`~concurrent.futures.ThreadPoolExecutor`.

    Workers share the caller's PDN models (read-only after
    :meth:`PdnSpot.prime_for_execution`); the evaluations themselves hold the
    GIL, so wall-clock gains are modest for this pure-Python workload -- see
    :class:`ProcessExecutor` for actual CPU parallelism.
    """

    name = "thread"

    def _run_chunks(
        self, engine: EvaluationEngine, chunks: List[List[Task]]
    ) -> Iterator[ChunkResult]:
        if len(chunks) <= 1:
            for chunk in chunks:
                yield _evaluate_chunk_in_process(engine, chunk)
            return
        with futures.ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            submitted = [
                pool.submit(_evaluate_chunk_in_process, engine, chunk)
                for chunk in chunks
            ]
            for future in futures.as_completed(submitted):
                yield future.result()


class ProcessExecutor(Executor):
    """Evaluate chunks on a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Each worker process rebuilds the evaluation engine once from the
    caller's :class:`WorkerConfig` (pool initializer), then evaluates
    picklable task chunks; evaluations stream back to the parent, which owns
    the cache merge.  Worker start-up (interpreter fork/spawn plus the
    FlexWatts predictor calibration) costs tens of milliseconds per worker,
    so this backend pays off on grids whose serial cost dwarfs that.
    """

    name = "process"
    uses_parent_models = False

    def _run_chunks(
        self, engine: EvaluationEngine, chunks: List[List[Task]]
    ) -> Iterator[ChunkResult]:
        if len(chunks) <= 1:
            # One chunk cannot overlap with anything; skip the pool start-up.
            for chunk in chunks:
                yield _evaluate_chunk_in_process(engine, chunk)
            return
        config = engine.worker_config()
        tracing = obs_trace.tracing_enabled()
        with futures.ProcessPoolExecutor(
            max_workers=len(chunks),
            initializer=_init_worker,
            initargs=(config, tracing),
        ) as pool:
            submitted = [pool.submit(_evaluate_chunk, chunk) for chunk in chunks]
            for future in futures.as_completed(submitted):
                pairs, used_columnar, spans = future.result()
                _note_chunk(len(pairs), used_columnar)
                tracer = obs_trace.active_tracer()
                if spans and tracer is not None:
                    tracer.absorb(spans)
                yield pairs


#: Registry of the built-in backends, keyed by their CLI/``make_executor`` name.
EXECUTORS: Dict[str, Callable[..., Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
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
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
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


async def evaluate_units_async(
    engine: EvaluationEngine,
    units: Iterable[EvalUnit],
    executor: ExecutorLike = None,
    jobs: Optional[int] = None,
) -> List[EvalResult]:
    """Evaluate ``units`` without blocking the running event loop.

    The awaitable dispatch seam the evaluation service is built on: the
    blocking :meth:`Executor.evaluate_units` drive (cache lookup, dedupe,
    shard, evaluate, merge-back, canonical reassembly) runs on the loop's
    default thread-pool executor while the caller's coroutine is suspended.
    Results -- and every cache side effect -- are exactly those of the
    synchronous call.

    Parameters
    ----------
    engine:
        Any :class:`EvaluationEngine` (the analytic or the simulation
        engine, or a test stub).
    units:
        The ``(pdn name, point, overrides)`` units, evaluated in order.
    executor, jobs:
        The backend the dispatched batch itself runs on, resolved by
        :func:`make_executor`; the default is a :class:`SerialExecutor`
        on the seam thread (identical accounting to the engine's serial
        path).
    """
    backend = make_executor(executor, jobs=jobs)
    if backend is None:
        backend = SerialExecutor(jobs=1)
    unit_list = list(units)
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(
        None, backend.evaluate_units, engine, unit_list
    )


def parallel_requested(executor: ExecutorLike = None, jobs: Optional[int] = None) -> bool:
    """Whether ``executor`` / ``jobs`` select a parallel backend.

    The one gate the figure drivers use to decide between the seed-identical
    serial path and a parallel prewarm; it validates the arguments exactly
    like :func:`make_executor` (so an invalid ``jobs`` raises instead of
    silently falling back to serial).
    """
    return make_executor(executor, jobs=jobs) is not None
