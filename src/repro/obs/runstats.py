"""Per-run evaluation statistics attached to result containers.

A :class:`RunStats` summarises one batch evaluation -- unit count, wall
time and the memory-cache traffic it generated -- and rides on the
container the run produced: ``ResultSet.run_stats`` after
:meth:`PdnSpot.run` / :meth:`SimEngine.run`, and
``OptimizationOutcome.run_stats`` after :func:`run_optimization`.  It is
advisory metadata: never serialized with the container and never part of
container equality, so bit-identity contracts (cached vs uncached, local
vs served) are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class RunStats:
    """A summary of one batch evaluation run.

    Parameters
    ----------
    units:
        Evaluation units the run requested (including duplicates).
    duration_s:
        Wall-clock seconds of the run, from the monotonic clock.
    cache_hits, cache_misses:
        Memory-tier cache traffic the run generated (deltas of the
        engine's ``cache_info()`` counters, so a warm rerun shows all
        hits and no misses).
    """

    units: int
    duration_s: float
    cache_hits: int
    cache_misses: int

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served from cache (0.0 when none)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """The statistics as a JSON-ready mapping (stable key order)."""
        return {
            "units": self.units,
            "duration_s": self.duration_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
        }
