"""Host-speed reference: a fixed kernel timed next to every measurement.

On a shared host the same op can take up to twice as long for stretches of
seconds to minutes (identical ops measured 480-900 ms within one minute on
a 2-vCPU Xeon guest), and CPU time slows as much as wall time, so a run's
median moves with the host rather than with the program.  The benchmark
therefore times a fixed pure-Python kernel -- allocation, sorting and JSON
like the program's result handling, plus an interpreter-bound integer loop
-- right before and right after each timed op, set-up launch or served
slice, and reports the op's time scaled to a host on which that kernel
takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel is benchmark code, so a change to the program moves the reported
times exactly as it moves the measured ones; only the host's speed cancels.
The measured wall-clock figures are printed in the report next to them.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import time
from typing import Optional, Set

#: The kernel's time on the host the reported figures are scaled to; about
#: its time on an idle 2 GHz Xeon core, so reported times read close to
#: wall-clock time there.
REFERENCE_S = 0.030


def kernel() -> float:
    """The fixed reference work (~30 ms on an idle 2 GHz Xeon core)."""
    rng = random.Random(12345)
    rows = [{"a": rng.random(), "b": rng.randrange(1000), "c": str(i)} for i in range(5000)]
    rows.sort(key=lambda row: row["a"])
    total = len(json.dumps(rows)) + sum(math.exp(-row["a"]) * row["b"] for row in rows)
    for i in range(150000):
        total += i * i % 7
    return total


def time_kernel(cpus: Optional[Set[int]] = None) -> float:
    """One timed run of :func:`kernel`, in seconds, after a collection.

    With ``cpus`` the calling thread runs it on those CPUs only, then gets
    its own CPUs back.
    """
    previous = os.sched_getaffinity(0)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        gc.collect()
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if cpus:
            os.sched_setaffinity(0, previous)


class Reference:
    """Brackets successive measurements with timed kernel runs.

    Construct it right before the first measurement; call :meth:`scale`
    right after each one.  ``cpus`` are the CPUs whose speed matters: those
    the measured work ran on, when another process did it.
    """

    def __init__(self, cpus: Optional[Set[int]] = None) -> None:
        self._cpus = cpus
        self._last = time_kernel(cpus)
        self.factors: list = []

    @property
    def speed(self) -> float:
        """The host's speed at the latest kernel run, relative to the
        reference host (below 1 when slower)."""
        return REFERENCE_S / self._last

    def scale(self) -> float:
        """The factor for the measurement since the previous kernel run."""
        now = time_kernel(self._cpus)
        factor = REFERENCE_S / ((self._last + now) / 2.0)
        self._last = now
        self.factors.append(factor)
        return factor
