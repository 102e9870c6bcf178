"""Persistent on-disk evaluation caching (the second cache tier).

The in-memory memo caches of :class:`~repro.analysis.pdnspot.PdnSpot` and
:class:`~repro.sim.study.SimEngine` die with the process; this package adds
the durable tier below them.  Attach a :class:`DiskCache` (or just a cache
directory path) to an engine and every computed evaluation is written
through to disk, every memory miss falls through to a disk lookup, and a
directory warmed by one process makes identical runs in *any* later process
-- CLI, daemon or CI -- near-instant with bit-identical results.

See :doc:`/guides/caching` for the architecture and CLI usage.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.cache.store import (
        CACHE_FORMAT_VERSION,
        CACHE_STATS_SCHEMA_VERSION,
        DiskCache,
        DiskCacheLike,
        DiskCacheStats,
        cache_dir_summary,
        cache_io_section,
        cache_stats_payload,
        canonical_key,
        parameters_fingerprint,
        prune_cache_dir,
        resolve_disk_cache,
    )

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_STATS_SCHEMA_VERSION",
    "DiskCache",
    "DiskCacheLike",
    "DiskCacheStats",
    "cache_dir_summary",
    "cache_io_section",
    "cache_stats_payload",
    "canonical_key",
    "parameters_fingerprint",
    "prune_cache_dir",
    "resolve_disk_cache",
]

__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.cache.store": (
        "CACHE_FORMAT_VERSION", "CACHE_STATS_SCHEMA_VERSION", "DiskCache", "DiskCacheLike",
        "DiskCacheStats", "cache_dir_summary", "cache_io_section", "cache_stats_payload",
        "canonical_key", "parameters_fingerprint", "prune_cache_dir", "resolve_disk_cache",
    ),
})
