"""The on-disk simulation store: one SQLite file per cache directory.

:class:`DiskCache` is the second tier behind the in-memory memo cache of
:class:`~repro.sim.study.SimEngine`.  A cache directory holds one SQLite
database (:data:`DB_NAME`) with one table of pickled simulation results,
keyed by ``(namespace, format version, model fingerprint, canonical key)``.
The model-parameters fingerprint (:func:`parameters_fingerprint`) is part of
the key, so rows written under one technology-parameter set are never found
after the parameters change: stale results cannot be served, only pruned.

The store reads and writes once per batch: :meth:`DiskCache.get_many` runs
one indexed query, :meth:`DiskCache.put_many` one ``INSERT OR REPLACE``
transaction.  The database runs in WAL mode (https://www.sqlite.org/wal.html)
with a busy timeout, so readers never block on a writer and concurrent
writers queue.  The guarantees:

* **Atomic writes.**  A batch publishes in one transaction; two processes
  writing the same key leave one valid row.
* **Corruption is a miss.**  A row that fails to unpickle, or that the
  engine rejects (:meth:`DiskCache.discard`), is logged, counted in
  :attr:`DiskCacheStats.corrupt`, deleted and reported as a miss.  A cache
  file that is not a database is logged, removed and recreated.
* **Never required.**  Every ``OSError`` and ``sqlite3.Error`` degrades the
  store to a logged no-op; results are unaffected.

Trust model: rows are Python pickles, and unpickling executes code, so the
cache directory must be **writable only by users you trust** -- a per-user
location like ``~/.cache/repro``, never a world-writable one (``/tmp``).
The corruption handling protects against accidents, not adversaries.

Directories of the format-1 store (two-hex shard directories of ``.pkl``
files) are never read or counted; :func:`prune_cache_dir` (``repro cache
prune``) deletes them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import logging
import pickle
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import trace as obs_trace
from repro.obs.metrics import METRICS

logger = logging.getLogger("repro.cache")

# Disk I/O instruments, bound once at import time: per-batch get/put latency
# (log-spaced buckets shared with every latency histogram in the process)
# and the count of corrupt rows healed by deletion.
_GET_LATENCY = METRICS.histogram("cache.disk.get_latency_s")
_PUT_LATENCY = METRICS.histogram("cache.disk.put_latency_s")
_SELF_HEAL = METRICS.counter("cache.disk.self_heal")

#: Format version, part of every row key.  Bump it when the meaning of the
#: pickled payloads changes; old rows then behave as misses until pruned.
#: Version 1 was the file-per-entry store.
CACHE_FORMAT_VERSION = 2

#: The database file inside a cache directory.
DB_NAME = "cache.sqlite3"

#: How long a connection waits for another connection's lock.
_BUSY_TIMEOUT_S = 30.0

#: Keys per ``IN (...)`` query, well under SQLite's host-parameter limit.
_QUERY_CHUNK = 500

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    namespace TEXT NOT NULL,
    version INTEGER NOT NULL,
    fingerprint TEXT NOT NULL,
    key TEXT NOT NULL,
    payload BLOB NOT NULL,
    written_s REAL NOT NULL,
    PRIMARY KEY (namespace, version, fingerprint, key)
)
"""

#: Files the format-1 store wrote inside its shard directories.
_LEGACY_SUFFIXES = (".pkl", ".lock", ".tmp")

#: Types :func:`canonical_key` has already warned about falling back for.
_WARNED_FALLBACK_TYPES: set = set()


def canonical_key(value: object) -> str:
    """A deterministic, process-independent string form of a cache key.

    Dict and set items are sorted, enums render as ``Type.NAME`` and
    dataclasses render their fields in definition order, so the on-disk row
    key never depends on interpreter hash seeds or insertion order.
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
    # row key (a silent 0%-hit cache) -- warn loudly, once per type.
    if type(value) not in _WARNED_FALLBACK_TYPES:
        _WARNED_FALLBACK_TYPES.add(type(value))
        logger.warning(
            "disk cache: canonical_key falling back to repr() for %s; if the "
            "repr is not process-independent the disk tier will never hit",
            type(value).__qualname__,
        )
    return repr(value)


def parameters_fingerprint(parameters: object) -> str:
    """The model-parameters part of every row key.

    A short SHA-256 digest of the canonical form of a technology-parameter
    set: two sets that differ in *any* field get different fingerprints.
    """
    return hashlib.sha256(canonical_key(parameters).encode("utf-8")).hexdigest()[:16]


def _open(path: Path) -> sqlite3.Connection:
    """Open (creating if needed) the database at ``path``.

    A file there that is not a SQLite database is logged, removed with its
    WAL side files and recreated.  The connection may be shared by threads;
    its owner serialises access.
    """
    try:
        return _connect(path)
    except sqlite3.DatabaseError as error:
        if type(error) is not sqlite3.DatabaseError:
            raise  # locked, read-only, I/O: not a damaged file
        logger.warning(
            "disk cache: %s is not a usable database (%s); recreating it",
            path, error,
        )
        for suffix in ("", "-wal", "-shm"):
            with contextlib.suppress(FileNotFoundError):
                Path(f"{path}{suffix}").unlink()
        return _connect(path)


def _connect(path: Path) -> sqlite3.Connection:
    connection = sqlite3.connect(
        path, timeout=_BUSY_TIMEOUT_S, check_same_thread=False
    )
    try:
        # Two connections switching a new file to WAL at once deadlock, and
        # SQLite fails one at once instead of waiting: retry it.
        deadline = time.monotonic() + _BUSY_TIMEOUT_S
        while True:
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        # WAL + NORMAL: commits stay atomic; only a power loss can roll back
        # the newest transactions, which for a cache is a miss, not damage.
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(_SCHEMA)
    except BaseException:
        connection.close()
        raise
    return connection


@dataclass(frozen=True)
class DiskCacheStats:
    """Counters and on-disk footprint of one :class:`DiskCache`.

    ``hits``/``misses``/``writes``/``corrupt`` count this store object's
    traffic, one per key; ``entries`` and ``size_bytes`` (pickled payload
    bytes) are the namespace's current footprint, shared by every process
    using the directory.
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
    """A versioned, fingerprinted store of pickled payloads in one SQLite file.

    Parameters
    ----------
    root:
        The cache directory (created on first use; ``~`` expands), which
        several namespaces and processes can share.  It must only be
        writable by trusted users (see the module's trust model).
    namespace:
        Which engine's rows these are (``"sim"`` for trace simulations).
    fingerprint:
        The owning engine's :func:`parameters_fingerprint`; rows written
        under another fingerprint are invisible.
    """

    def __init__(self, root: Union[str, Path], namespace: str, fingerprint: str):
        self.root = Path(root).expanduser()
        self.namespace = str(namespace)
        self.fingerprint = str(fingerprint)
        self._address = (self.namespace, CACHE_FORMAT_VERSION, self.fingerprint)
        # Guards the connection (shared by the threads that evaluate
        # batches) and the traffic counters.
        self._lock = threading.Lock()
        self._connection: Optional[sqlite3.Connection] = None
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0

    def _db(self) -> sqlite3.Connection:
        """The store's connection, opened on first use (call under the lock)."""
        if self._connection is None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._connection = _open(self.root / DB_NAME)
        return self._connection

    def get_many(self, keys: Sequence[Tuple[object, ...]]) -> List[Optional[object]]:
        """Per key, the stored payload (freshly unpickled) or ``None``.

        One indexed query serves the whole batch.  A row that fails to
        unpickle is logged, counted under ``corrupt``, deleted so the next
        write heals it, and reported as a miss.  Each batch is one sample
        of the ``cache.disk.get_latency_s`` histogram.
        """
        started = time.perf_counter()
        encoded = [canonical_key(key) for key in keys]
        blobs: Dict[str, bytes] = {}
        with self._lock:
            try:
                db = self._db()
                for start in range(0, len(encoded), _QUERY_CHUNK):
                    chunk = encoded[start:start + _QUERY_CHUNK]
                    blobs.update(db.execute(
                        "SELECT key, payload FROM entries WHERE namespace = ? "
                        "AND version = ? AND fingerprint = ? AND key IN "
                        f"({','.join('?' * len(chunk))})",
                        (*self._address, *chunk),
                    ))
            except (OSError, sqlite3.Error) as error:
                logger.warning("disk cache: cannot read %s: %s", self.root, error)
                blobs = {}
        found: List[Optional[object]] = [None] * len(keys)
        corrupt = []
        for index, key in enumerate(encoded):
            blob = blobs.get(key)
            if blob is None:
                continue
            try:
                found[index] = pickle.loads(blob)
            except Exception as error:  # noqa: BLE001 - any defect must be a miss
                corrupt.append((key, f"cannot unpickle: {error}", blob))
        hits = sum(value is not None for value in found)
        with self._lock:
            self._hits += hits
            self._misses += len(keys) - hits
            for key, reason, blob in corrupt:
                self._heal(key, reason, blob)
        _GET_LATENCY.observe(time.perf_counter() - started)
        return found

    def put_many(
        self, keys: Sequence[Tuple[object, ...]], payloads: Iterable[object]
    ) -> int:
        """Store ``payloads`` under ``keys``; returns how many rows were written.

        The batch is one ``INSERT OR REPLACE`` transaction.  A payload that
        cannot be pickled is skipped with a log line.  Each batch is one
        sample of the ``cache.disk.put_latency_s`` histogram.
        """
        started = time.perf_counter()
        written_s = time.time()
        rows = []
        for key, payload in zip(keys, payloads):
            encoded = canonical_key(key)
            try:
                blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception as error:  # noqa: BLE001 - unpicklable payloads skip disk
                logger.warning("disk cache: cannot pickle payload for %s: %s", encoded, error)
                continue
            rows.append((*self._address, encoded, blob, written_s))
        with self._lock:
            try:
                db = self._db()
                with db:
                    db.executemany(
                        "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?, ?)", rows
                    )
                self._writes += len(rows)
            except (OSError, sqlite3.Error) as error:
                logger.warning("disk cache: cannot write %s: %s", self.root, error)
                rows = []
        _PUT_LATENCY.observe(time.perf_counter() - started)
        return len(rows)

    def discard(self, key: Tuple[object, ...], reason: str) -> None:
        """Drop a row the *caller* found unusable (e.g. a wrong payload type).

        The defect is logged and healed like in-store corruption, and the
        earlier hit is reclassified as a miss, so the counters keep meaning
        "the caller was served".
        """
        with self._lock:
            self._heal(canonical_key(key), reason)
            if self._hits > 0:
                self._hits -= 1
            self._misses += 1

    def _heal(self, key: str, reason: str, blob: Optional[bytes] = None) -> None:
        """Log, count and delete one bad row (call under the lock).

        Given ``blob``, the row is deleted only if it still holds those
        bytes: a concurrent writer may already have replaced it.
        """
        logger.warning("disk cache: discarding row %s: %s", key, reason)
        _SELF_HEAL.inc()
        obs_trace.instant("cache.self_heal", category="cache", key=key, reason=reason)
        self._corrupt += 1
        try:
            db = self._db()
            with db:
                db.execute(
                    "DELETE FROM entries WHERE namespace = ? AND version = ? AND "
                    "fingerprint = ? AND key = ? AND (? IS NULL OR payload = ?)",
                    (*self._address, key, blob, blob),
                )
        except (OSError, sqlite3.Error) as error:
            logger.warning("disk cache: cannot delete from %s: %s", self.root, error)

    def stats(self) -> DiskCacheStats:
        """This store's traffic counters plus the namespace's footprint."""
        entries, size_bytes = cache_dir_summary(self.root).get(self.namespace, (0, 0))
        with self._lock:
            return DiskCacheStats(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                corrupt=self._corrupt,
                entries=entries,
                size_bytes=size_bytes,
            )


# --------------------------------------------------------------------------- #
# Directory-level helpers (the CLI's `repro cache stats|prune` surface)
# --------------------------------------------------------------------------- #
def cache_dir_summary(root: Union[str, Path]) -> Dict[str, Tuple[int, int]]:
    """Per-namespace ``(entries, size_bytes)`` footprint of a cache directory.

    Read from the database alone: format-1 shard directories and unrelated
    files are never counted.
    """
    path = Path(root).expanduser() / DB_NAME
    if not path.is_file():
        return {}
    try:
        with contextlib.closing(_open(path)) as db:
            rows = db.execute(
                "SELECT namespace, COUNT(*), SUM(LENGTH(payload)) FROM entries "
                "GROUP BY namespace ORDER BY namespace"
            ).fetchall()
    except (OSError, sqlite3.Error) as error:
        logger.warning("disk cache: cannot read %s: %s", root, error)
        return {}
    return {namespace: (entries, size_bytes) for namespace, entries, size_bytes in rows}


#: Version of the :func:`cache_stats_payload` document schema.  v1 carried
#: ``cache_dir`` + ``namespaces`` only; v2 added this marker and the ``io``
#: section (both *additive* -- every v1 key is unchanged).
CACHE_STATS_SCHEMA_VERSION = 2


def cache_stats_payload(root: Union[str, Path]) -> Dict[str, object]:
    """The JSON stats document of a cache directory (the shared schema).

    ``repro cache stats --json`` prints exactly this mapping and ``GET
    /v1/stats`` embeds it as ``cache.disk``, so the two cannot drift.  Keys:
    ``schema_version``, ``cache_dir`` (as given), ``namespaces``
    (per-namespace ``{"entries", "size_bytes"}`` from
    :func:`cache_dir_summary`) and ``io``: this process's get/put latency
    histograms (one sample per batch, summed in seconds under ``sum_s``)
    and count of self-healed rows, accumulated by every :class:`DiskCache`
    in the process -- zeros in a fresh ``repro cache stats`` process,
    lifetime traffic in the evaluation service.
    """
    return {
        "schema_version": CACHE_STATS_SCHEMA_VERSION,
        "cache_dir": str(root),
        "namespaces": {
            namespace: {"entries": entries, "size_bytes": size_bytes}
            for namespace, (entries, size_bytes) in cache_dir_summary(root).items()
        },
        "io": {
            "get": _GET_LATENCY.as_dict(sum_key="sum_s"),
            "put": _PUT_LATENCY.as_dict(sum_key="sum_s"),
            "self_heal": _SELF_HEAL.value,
        },
    }


def prune_cache_dir(
    root: Union[str, Path], older_than_s: Optional[float] = None
) -> int:
    """Delete rows (all, or only those older than ``older_than_s``).

    Format-1 files (``*.pkl``/``*.lock``/``*.tmp`` inside two-hex shard
    directories) go under the same age rule; no other file is touched, so a
    mistyped ``--cache-dir`` cannot delete the user's data.  Returns the
    number of rows and format-1 entries removed.
    """
    root = Path(root).expanduser()
    if not root.is_dir():
        return 0
    cutoff = float("inf") if older_than_s is None else time.time() - float(older_than_s)
    removed = 0
    try:
        if (root / DB_NAME).is_file():
            with contextlib.closing(_open(root / DB_NAME)) as db:
                with db:
                    removed = db.execute(
                        "DELETE FROM entries WHERE written_s < ?", (cutoff,)
                    ).rowcount
                if removed:
                    db.execute("VACUUM")
    except (OSError, sqlite3.Error) as error:
        logger.warning("disk cache: cannot prune %s: %s", root, error)
    for namespace_dir in sorted(path for path in root.iterdir() if path.is_dir()):
        removed += _prune_legacy_shards(namespace_dir, cutoff)
    return removed


def _prune_legacy_shards(namespace_dir: Path, cutoff: float) -> int:
    """Delete the format-1 files of one namespace directory; returns entries removed."""
    removed = 0
    shards = [
        path for path in sorted(namespace_dir.iterdir())
        if path.is_dir() and len(path.name) == 2
        and all(char in "0123456789abcdef" for char in path.name)
    ]
    for shard in shards:
        for path in sorted(shard.iterdir()):
            if not path.is_file() or path.suffix not in _LEGACY_SUFFIXES:
                continue  # never delete files this store did not write
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
                removed += path.suffix == ".pkl"
            except OSError as error:
                logger.warning("disk cache: cannot prune %s: %s", path, error)
        with contextlib.suppress(OSError):
            shard.rmdir()  # only succeeds once the shard is empty
    return removed

