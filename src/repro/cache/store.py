"""The content-addressed, file-locked on-disk evaluation store.

:class:`DiskCache` is the second tier behind the in-memory memo caches of the
evaluation engines (:class:`~repro.analysis.pdnspot.PdnSpot` and
:class:`~repro.sim.study.SimEngine`): a directory of pickled evaluation
payloads addressed by the SHA-256 of ``(format version, namespace, model
fingerprint, engine cache key)``.  Because the *model-parameters fingerprint*
(:func:`parameters_fingerprint`) is part of the address, entries written
under one technology-parameter set are simply never found after the
parameters change -- stale results cannot be served, only pruned.

Design rules the store guarantees:

* **Atomic writes.**  Entries are written to a temporary file in the same
  directory and published with :func:`os.replace`, under a per-entry
  advisory file lock where the platform provides one (``fcntl``); readers
  never observe a partially written entry, and two processes racing to write
  the same key both leave a valid entry behind.
* **Corruption is a miss.**  A truncated, garbled, version-mismatched or
  foreign file at an entry path is logged, counted in
  :attr:`DiskCacheStats.corrupt`, best-effort deleted, and reported to the
  engine as a plain miss -- the caller recomputes and the store heals;
  nothing is ever raised into an evaluation.
* **Never required.**  Every filesystem failure (read-only directory, disk
  full, permission error) degrades the store to a no-op with a log line;
  results are unaffected.

Trust model: entries are Python pickles, and unpickling executes code, so
the cache directory must be **writable only by users you trust** -- use a
per-user location like ``~/.cache/repro``, never a world-writable one
(``/tmp``), where another local user could plant a crafted entry.  The
corruption handling above protects against *accidents*, not adversaries.

Example
-------
>>> from repro import PdnSpot, Study
>>> spot = PdnSpot(disk_cache="~/.cache/repro")      # doctest: +SKIP
>>> spot.run(Study.over_tdps([4.0, 18.0]))           # doctest: +SKIP
>>> PdnSpot(disk_cache="~/.cache/repro").run(        # doctest: +SKIP
...     Study.over_tdps([4.0, 18.0]))                # served from disk
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import logging
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS
from repro.util.errors import ConfigurationError

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger("repro.cache")

# Disk I/O instruments, bound once at import time: per-call get/put latency
# (log-spaced buckets shared with every latency histogram in the process)
# and the count of corrupt/foreign entries healed by deletion.
_GET_LATENCY = METRICS.histogram("cache.disk.get_latency_s")
_PUT_LATENCY = METRICS.histogram("cache.disk.put_latency_s")
_SELF_HEAL = METRICS.counter("cache.disk.self_heal")

#: Format version baked into every entry address and header.  Bump it when
#: the entry layout (or the meaning of the pickled payloads) changes; old
#: entries then stop matching and behave as misses until pruned.
CACHE_FORMAT_VERSION = 1

#: File suffix of cache entries.
ENTRY_SUFFIX = ".pkl"

#: What an engine may pass as a ``disk_cache`` argument: an attached store,
#: a cache-directory path, or ``None`` (no disk tier).
DiskCacheLike = Union["DiskCache", str, Path, None]

#: Types :func:`canonical_key` has already warned about falling back for.
_WARNED_FALLBACK_TYPES: set = set()


def canonical_key(value: object) -> str:
    """A deterministic, process-independent string form of a cache key.

    The engines' memo-cache keys are nested tuples of primitives, enums and
    frozen dataclasses (operating conditions, domain loads, sim points);
    ``repr`` of such values is stable, but this canonical form pins the rules
    explicitly -- dict items are sorted, enums render as ``Type.NAME``,
    dataclasses render their fields in definition order -- so the on-disk
    address never depends on interpreter hash seeds or insertion order.
    """
    if isinstance(value, enum.Enum):
        return f"{type(value).__qualname__}.{value.name}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (bool, int, str, bytes)) or value is None:
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ",".join(canonical_key(item) for item in value) + ")"
    if isinstance(value, list):
        return "[" + ",".join(canonical_key(item) for item in value) + "]"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical_key(item) for item in value)) + "}"
    if isinstance(value, dict):
        items = sorted(
            (canonical_key(key), canonical_key(item)) for key, item in value.items()
        )
        return "{" + ",".join(f"{key}:{item}" for key, item in items) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={canonical_key(getattr(value, field.name))}"
            for field in dataclasses.fields(value)
        )
        return f"{type(value).__qualname__}({fields})"
    # Fallback for types outside the canonical set.  A default object repr
    # embeds the memory address, which would give every process a different
    # disk address (a silent 0%-hit cache) -- warn loudly, once per type.
    if type(value) not in _WARNED_FALLBACK_TYPES:
        _WARNED_FALLBACK_TYPES.add(type(value))
        logger.warning(
            "disk cache: canonical_key falling back to repr() for %s; if the "
            "repr is not process-independent the disk tier will never hit",
            type(value).__qualname__,
        )
    return repr(value)


def parameters_fingerprint(parameters: object) -> str:
    """The model-parameters half of every entry address.

    A short SHA-256 digest over the canonical form of a technology-parameter
    set (any dataclass works).  Two parameter sets that differ in *any* field
    produce different fingerprints, so a cache directory warmed under one
    technology never serves entries to an engine built with another.
    """
    return hashlib.sha256(canonical_key(parameters).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class DiskCacheStats:
    """Counters and on-disk footprint of one :class:`DiskCache`.

    ``hits``/``misses``/``writes``/``corrupt`` count this process's traffic
    (they reset with the store object); ``entries`` and ``size_bytes`` are
    the store's *current* on-disk footprint for the namespace, shared across
    every process using the directory.
    """

    hits: int
    misses: int
    writes: int
    corrupt: int
    entries: int
    size_bytes: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DiskCache:
    """A versioned, content-addressed, file-locked evaluation store.

    Parameters
    ----------
    root:
        The cache directory (created on first write; ``~`` expands).
        Several namespaces -- and several processes -- can share one root.
        Entries are pickles, so the directory must only be writable by
        trusted users (see the module docstring's trust model).
    namespace:
        Which engine's entries live here (``"pdnspot"`` for analytic
        operating points, ``"sim"`` for trace simulations); part of the
        entry address, so payload types never mix.  Leave unset when the
        store will be attached to an engine -- :meth:`bind` then adopts the
        engine's namespace (standalone use defaults to ``"pdnspot"``).
    fingerprint:
        The model-parameters fingerprint (:func:`parameters_fingerprint`)
        of the engine attaching the store; entries written under a different
        fingerprint are invisible.  Leave unset to have :meth:`bind` adopt
        the attaching engine's fingerprint; setting it explicitly is the
        expert escape hatch for callers managing invalidation themselves.
    version:
        The entry format version; defaults to :data:`CACHE_FORMAT_VERSION`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        namespace: Optional[str] = None,
        fingerprint: Optional[str] = None,
        version: int = CACHE_FORMAT_VERSION,
    ):
        self.root = Path(root).expanduser()
        self.namespace = str(namespace) if namespace is not None else "pdnspot"
        # An *explicit* empty fingerprint ("") is a valid expert choice --
        # fingerprinting deliberately disabled -- and must not be confused
        # with "not passed", which bind() fills from the attaching engine.
        self.fingerprint = str(fingerprint) if fingerprint is not None else ""
        self.version = int(version)
        self._namespace_explicit = namespace is not None
        self._fingerprint_explicit = fingerprint is not None
        self._bound = False
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0

    def bind(self, namespace: str, fingerprint: str) -> "DiskCache":
        """Adopt an attaching engine's address fields (explicit fields win).

        Engines call this when a pre-built store is passed as their
        ``disk_cache``: a namespace or fingerprint the *caller* set
        explicitly is kept (the expert override); unset fields adopt the
        engine's values, so the staleness and payload-separation guarantees
        hold by default.  The same instance is returned -- its traffic
        counters keep recording.  One bare store cannot serve two engines
        with conflicting identities; that raises instead of silently
        serving one engine's entries to the other.
        """
        namespace = str(namespace)
        fingerprint = str(fingerprint)
        if self._bound:
            bound_namespace = self._namespace_explicit or self.namespace == namespace
            bound_fingerprint = (
                self._fingerprint_explicit or self.fingerprint == fingerprint
            )
            if not (bound_namespace and bound_fingerprint):
                raise_from = (
                    f"namespace {self.namespace!r} vs {namespace!r}"
                    if not bound_namespace
                    else f"fingerprint {self.fingerprint!r} vs {fingerprint!r}"
                )
                raise ConfigurationError(
                    "one bare DiskCache cannot serve engines with conflicting "
                    f"identities ({raise_from}); pass the cache directory "
                    "path instead, so each engine binds its own store"
                )
            return self
        if not self._namespace_explicit:
            self.namespace = namespace
        if not self._fingerprint_explicit:
            self.fingerprint = fingerprint
        self._bound = True
        return self

    def __repr__(self) -> str:
        return (
            f"DiskCache(root={str(self.root)!r}, namespace={self.namespace!r}, "
            f"fingerprint={self.fingerprint!r})"
        )

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def _locate(self, key: Tuple[object, ...]) -> Tuple[Path, str]:
        """The entry path and the canonical key form it was derived from."""
        encoded = canonical_key(key)
        material = "\x1f".join(
            (str(self.version), self.namespace, self.fingerprint, encoded)
        )
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()
        path = self.root / self.namespace / digest[:2] / (digest + ENTRY_SUFFIX)
        return path, encoded

    def entry_path(self, key: Tuple[object, ...]) -> Path:
        """The file this key's evaluation is stored at (existing or not)."""
        return self._locate(key)[0]

    # ------------------------------------------------------------------ #
    # get / put
    # ------------------------------------------------------------------ #
    def get(self, key: Tuple[object, ...]) -> Optional[object]:
        """The stored payload for ``key``, or ``None`` on a miss.

        A corrupt, truncated, version-mismatched or foreign entry file is
        *never* raised to the caller: it is logged, counted under
        ``corrupt``, best-effort removed so the next write heals it, and
        reported as a miss.  Every call's latency lands in the process-wide
        ``cache.disk.get_latency_s`` histogram.
        """
        started = time.perf_counter()
        try:
            return self._get(key)
        finally:
            _GET_LATENCY.observe(time.perf_counter() - started)

    def _get(self, key: Tuple[object, ...]) -> Optional[object]:
        """The uninstrumented body of :meth:`get`."""
        path, encoded = self._locate(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._count("_misses")
            return None
        except OSError as error:
            logger.warning("disk cache: cannot read %s: %s", path, error)
            self._count("_misses")
            return None
        try:
            entry = pickle.loads(blob)
            if not isinstance(entry, dict):
                raise ValueError(f"entry is a {type(entry).__name__}, not a dict")
            if entry.get("format") != self.version:
                raise ValueError(
                    f"format version {entry.get('format')!r} != {self.version}"
                )
            if entry.get("fingerprint") != self.fingerprint:
                raise ValueError("model-parameters fingerprint mismatch")
            if entry.get("namespace") != self.namespace:
                raise ValueError("namespace mismatch")
            if entry.get("key") != encoded:
                raise ValueError("stored key does not match the requested key")
            payload = entry["payload"]
        except Exception as error:  # noqa: BLE001 - any defect must be a miss
            logger.warning(
                "disk cache: treating corrupt entry %s as a miss (%s)", path, error
            )
            self._count("_corrupt")
            self._count("_misses")
            _SELF_HEAL.inc()
            obs_trace.instant(
                "cache.self_heal", category="cache",
                path=str(path), reason=str(error),
            )
            with contextlib.suppress(OSError):
                # Heal under the entry lock, and only if the file still holds
                # the corrupt bytes we read: a concurrent writer may have
                # already replaced it with a fresh valid entry, which an
                # unconditional unlink would throw away.
                with self._entry_lock(path):
                    if path.read_bytes() == blob:
                        path.unlink()
            return None
        self._count("_hits")
        return payload

    def put(self, key: Tuple[object, ...], payload: object) -> bool:
        """Store ``payload`` under ``key``; returns whether the write stuck.

        The entry is pickled to a temporary file in the entry's directory and
        published atomically with :func:`os.replace`, under a per-entry
        advisory lock (where the platform has ``fcntl``), so concurrent
        writers -- two warm runs or daemons racing on the same key -- always leave one valid entry.  Filesystem failures
        degrade to a logged no-op.  Every call's latency lands in the
        process-wide ``cache.disk.put_latency_s`` histogram.
        """
        started = time.perf_counter()
        try:
            return self._put(key, payload)
        finally:
            _PUT_LATENCY.observe(time.perf_counter() - started)

    def _put(self, key: Tuple[object, ...], payload: object) -> bool:
        """The uninstrumented body of :meth:`put`."""
        path, encoded = self._locate(key)
        entry = {
            "format": self.version,
            "namespace": self.namespace,
            "fingerprint": self.fingerprint,
            "key": encoded,
            "payload": payload,
        }
        try:
            blob = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as error:  # noqa: BLE001 - unpicklable payloads skip disk
            logger.warning("disk cache: cannot pickle payload for %s: %s", path, error)
            return False
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with self._entry_lock(path):
                descriptor, temp_name = tempfile.mkstemp(
                    dir=path.parent, prefix=path.stem, suffix=".tmp"
                )
                try:
                    with os.fdopen(descriptor, "wb") as handle:
                        handle.write(blob)
                    os.replace(temp_name, path)
                except BaseException:
                    with contextlib.suppress(OSError):
                        os.unlink(temp_name)
                    raise
        except OSError as error:
            logger.warning("disk cache: cannot write %s: %s", path, error)
            return False
        self._count("_writes")
        return True

    def discard(self, key: Tuple[object, ...], reason: str = "") -> None:
        """Drop one entry the *caller* found unusable (e.g. wrong payload type).

        The header checks in :meth:`get` cannot know what payload class the
        attaching engine expects; when the engine rejects a structurally
        valid entry it reports it here, so the defect is logged and healed
        exactly like in-store corruption, and the earlier hit is
        reclassified as a miss -- the traffic counters keep meaning "the
        caller was served".
        """
        path = self.entry_path(key)
        logger.warning(
            "disk cache: discarding entry %s: %s", path, reason or "rejected by caller"
        )
        _SELF_HEAL.inc()
        obs_trace.instant(
            "cache.self_heal", category="cache",
            path=str(path), reason=reason or "rejected by caller",
        )
        with contextlib.suppress(OSError):
            path.unlink()
        with self._lock:
            self._corrupt += 1
            if self._hits > 0:
                self._hits -= 1
            self._misses += 1

    @contextlib.contextmanager
    def _entry_lock(self, path: Path) -> Iterator[None]:
        """Advisory per-entry write lock (no-op where ``fcntl`` is absent)."""
        if fcntl is None:  # pragma: no cover - Windows fallback
            yield
            return
        lock_path = path.with_suffix(".lock")
        with open(lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                # Remove the lock file while still holding the lock so the
                # store does not litter one .lock per entry; a waiter keeps
                # its (now anonymous) inode and later writers create a fresh
                # file -- writes stay atomic either way, the lock is only an
                # optimisation against redundant temp-file churn.
                with contextlib.suppress(OSError):
                    os.unlink(lock_path)
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    # ------------------------------------------------------------------ #
    # stats / prune
    # ------------------------------------------------------------------ #
    def _entries(self) -> Iterator[Path]:
        namespace_dir = self.root / self.namespace
        if not namespace_dir.is_dir():
            return
        yield from sorted(namespace_dir.glob(f"*/*{ENTRY_SUFFIX}"))

    def stats(self) -> DiskCacheStats:
        """This process's traffic counters plus the namespace's footprint."""
        entries = 0
        size_bytes = 0
        for path in self._entries():
            with contextlib.suppress(OSError):
                size_bytes += path.stat().st_size
                entries += 1
        with self._lock:
            return DiskCacheStats(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                corrupt=self._corrupt,
                entries=entries,
                size_bytes=size_bytes,
            )

    def prune(self, older_than_s: Optional[float] = None) -> int:
        """Delete entries (all, or only those older than ``older_than_s``).

        Temporary and lock files are swept alongside; returns the number of
        *entries* removed.  Pruning is the one way to reclaim space from
        stale fingerprints/versions, which are invisible to ``get`` but
        still on disk.
        """
        return _prune_namespace(self.root / self.namespace, older_than_s)


# --------------------------------------------------------------------------- #
# Directory-level helpers (the CLI's `repro cache stats|prune` surface)
# --------------------------------------------------------------------------- #
def _is_shard_dir(path: Path) -> bool:
    """Whether a directory looks like a DiskCache shard (two hex chars)."""
    name = path.name
    return (
        path.is_dir()
        and len(name) == 2
        and all(char in "0123456789abcdef" for char in name)
    )


def _is_cache_file(path: Path) -> bool:
    """Whether a file is one this store wrote (entry, lock, or stray temp).

    Pruning only ever touches these -- a mistyped ``--cache-dir`` pointed at
    an unrelated directory must not delete the user's files.
    """
    return path.suffix in (ENTRY_SUFFIX, ".lock", ".tmp")


def _prune_namespace(namespace_dir: Path, older_than_s: Optional[float]) -> int:
    if not namespace_dir.is_dir():
        return 0
    cutoff = None if older_than_s is None else time.time() - float(older_than_s)
    removed = 0
    shards = [path for path in sorted(namespace_dir.glob("*")) if _is_shard_dir(path)]
    for shard in shards:
        for path in sorted(shard.glob("*")):
            if not path.is_file() or not _is_cache_file(path):
                continue  # never delete files this store did not write
            try:
                if cutoff is not None and path.stat().st_mtime >= cutoff:
                    continue
                is_entry = path.suffix == ENTRY_SUFFIX
                path.unlink()
                removed += int(is_entry)
            except OSError as error:
                logger.warning("disk cache: cannot prune %s: %s", path, error)
    # Sweep shard directories that are now empty (best effort).
    for shard in shards:
        with contextlib.suppress(OSError):
            shard.rmdir()
    return removed


def cache_dir_summary(root: Union[str, Path]) -> Dict[str, Tuple[int, int]]:
    """Per-namespace ``(entries, size_bytes)`` footprint of a cache directory.

    Only subdirectories that *look like* cache namespaces are listed: empty
    ones (a namespace after a full prune) and ones containing hex shard
    directories.  A mistyped root full of unrelated directories therefore
    reports nothing instead of presenting the user's folders as namespaces.
    """
    root = Path(root).expanduser()
    summary: Dict[str, Tuple[int, int]] = {}
    if not root.is_dir():
        return summary
    for namespace_dir in sorted(path for path in root.iterdir() if path.is_dir()):
        children = list(namespace_dir.iterdir())
        shards = [path for path in children if _is_shard_dir(path)]
        if children and not shards:
            continue  # non-empty with no shard dirs: not a cache namespace
        entries = 0
        size_bytes = 0
        for shard in shards:
            for path in shard.glob(f"*{ENTRY_SUFFIX}"):
                with contextlib.suppress(OSError):
                    size_bytes += path.stat().st_size
                    entries += 1
        summary[namespace_dir.name] = (entries, size_bytes)
    return summary


#: Version of the :func:`cache_stats_payload` document schema.  v1 carried
#: ``cache_dir`` + ``namespaces`` only; v2 added this marker and the ``io``
#: section (both *additive* -- every v1 key is unchanged).
CACHE_STATS_SCHEMA_VERSION = 2


def cache_io_section() -> Dict[str, object]:
    """The current process's disk-cache I/O traffic, as a JSON-ready mapping.

    Get/put latency histograms (the shared log-spaced bucket layout, summed
    in seconds under ``sum_s``) and the count of corrupt-entry self-heal
    events, accumulated by every :class:`DiskCache` instance in this
    process.  A fresh inspection process (``repro cache stats``) therefore
    reports zeros; a long-running one (the evaluation service) reports its
    lifetime traffic.
    """
    return {
        "get": _GET_LATENCY.as_dict(sum_key="sum_s"),
        "put": _PUT_LATENCY.as_dict(sum_key="sum_s"),
        "self_heal": _SELF_HEAL.value,
    }


def cache_stats_payload(root: Union[str, Path]) -> Dict[str, object]:
    """The JSON stats document of a cache directory (the shared schema).

    The single source of the on-disk cache stats schema: ``repro cache
    stats --json`` prints exactly this mapping, and the evaluation
    service's ``GET /v1/stats`` embeds it as its ``cache.disk`` section,
    so the two surfaces can never drift apart.  Keys: ``schema_version``
    (:data:`CACHE_STATS_SCHEMA_VERSION`), ``cache_dir`` (the inspected
    root, as given), ``namespaces`` (per-namespace ``{"entries",
    "size_bytes"}`` footprints from :func:`cache_dir_summary`, unchanged
    since v1) and ``io`` (this process's get/put latency and self-heal
    traffic from :func:`cache_io_section`).
    """
    return {
        "schema_version": CACHE_STATS_SCHEMA_VERSION,
        "cache_dir": str(root),
        "namespaces": {
            namespace: {"entries": entries, "size_bytes": size_bytes}
            for namespace, (entries, size_bytes) in cache_dir_summary(root).items()
        },
        "io": cache_io_section(),
    }


def prune_cache_dir(
    root: Union[str, Path], older_than_s: Optional[float] = None
) -> int:
    """Prune every namespace under ``root``; returns entries removed."""
    root = Path(root).expanduser()
    if not root.is_dir():
        return 0
    return sum(
        _prune_namespace(namespace_dir, older_than_s)
        for namespace_dir in sorted(path for path in root.iterdir() if path.is_dir())
    )


def resolve_disk_cache(
    disk_cache: DiskCacheLike, namespace: str, fingerprint: str
) -> Optional[DiskCache]:
    """Resolve an engine's ``disk_cache`` argument into an attached store.

    ``None`` stays ``None`` (no disk tier); a string or path builds a store
    rooted there for the engine's namespace and model fingerprint.  A
    pre-built :class:`DiskCache` is :meth:`~DiskCache.bind`-ed **in place**
    (the caller's instance keeps recording traffic): address fields the
    caller set explicitly win, unset ones adopt the engine's -- so the
    staleness and payload-separation guarantees hold unless deliberately
    overridden.
    """
    if disk_cache is None:
        return None
    if isinstance(disk_cache, DiskCache):
        return disk_cache.bind(namespace, fingerprint)
    return DiskCache(disk_cache, namespace=namespace, fingerprint=fingerprint)
