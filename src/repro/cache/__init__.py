"""Persistent on-disk simulation caching (the second cache tier).

The in-memory memo cache of :class:`~repro.sim.study.SimEngine` dies with
the process; this package adds the durable tier below it.  Give the engine
a cache-directory path and every computed simulation batch is written
through to one SQLite file in one transaction, every batch of memory misses
is looked up on disk in one query, and a directory warmed by one process
replays identical simulations in *any* later process -- CLI, daemon or CI
-- with bit-identical results.

See :doc:`/guides/caching` for the architecture and CLI usage.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.cache.store import (
        CACHE_FORMAT_VERSION,
        CACHE_STATS_SCHEMA_VERSION,
        DiskCache,
        DiskCacheStats,
        cache_dir_summary,
        cache_stats_payload,
        canonical_key,
        parameters_fingerprint,
        prune_cache_dir,
    )

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_STATS_SCHEMA_VERSION",
    "DiskCache",
    "DiskCacheStats",
    "cache_dir_summary",
    "cache_stats_payload",
    "canonical_key",
    "parameters_fingerprint",
    "prune_cache_dir",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cache.store": (
        "CACHE_FORMAT_VERSION", "CACHE_STATS_SCHEMA_VERSION", "DiskCache", "DiskCacheStats",
        "cache_dir_summary", "cache_stats_payload", "canonical_key",
        "parameters_fingerprint", "prune_cache_dir",
    ),
})
