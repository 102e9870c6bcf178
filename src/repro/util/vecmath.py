"""Bit-exact vectorized math helpers for the columnar evaluation core.

The columnar kernels in :mod:`repro.pdn.columnar` must return results that
are *bit-identical* to the scalar per-point models (the per-point path is the
reference oracle; seed-equivalence and serve bit-identity tests compare with
``==``).  NumPy's elementwise ``+ - * /``, ``np.maximum`` and ``np.minimum``
are IEEE-754 operations identical to CPython's scalar float arithmetic, but
its transcendental kernels (``**``, ``np.exp``) use SIMD implementations
whose results can differ from ``math.exp`` / ``float.__pow__`` in the last
ulp.

The helpers here side-step that: they reduce an input array to its unique
values, apply the *scalar* CPython operation to each unique value once, and
scatter the results back.  On grid workloads the transcendental inputs are
functions of a few low-cardinality columns (TDP, workload type), so the
number of scalar calls is tiny compared to the lane count -- the memo is
essentially free while guaranteeing bit-identity with the oracle.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as _np


def unique_inverse(values):
    """``(unique values as Python floats, inverse index)`` of ``values``.

    The reduction :func:`per_unique` starts from; a caller that maps several
    functions over one column computes it once and hands it to
    :func:`map_unique` each time.
    """
    arr = _np.asarray(values, dtype=_np.float64)
    uniq, inverse = _np.unique(arr, return_inverse=True)
    return uniq.tolist(), inverse.reshape(arr.shape)


def map_unique(unique, fn: Callable[[float], float]):
    """Apply scalar ``fn`` to each value of a :func:`unique_inverse` pair and
    scatter the results back to the lanes."""
    values, inverse = unique
    return _np.array([fn(v) for v in values], dtype=_np.float64)[inverse]


def per_unique(values, fn: Callable[[float], float]):
    """Apply scalar ``fn`` once per unique value and scatter back.

    ``fn`` receives a Python ``float`` and must return one, so the result of
    every lane is exactly what the scalar model would have computed for it.
    """
    return map_unique(unique_inverse(values), fn)


def exact_pow(base, exponent):
    """``base ** exponent`` computed with CPython ``float.__pow__`` per lane.

    ``exponent`` is passed through unchanged (``int`` exponents stay ``int``),
    so ``exact_pow(x, 2)`` reproduces the scalar ``x**2`` exactly, including
    any difference from ``x*x``.
    """
    return per_unique(base, lambda v: v**exponent)


def exact_pow2(base, exponent_a, exponent_b):
    """Both ``base ** exponent_a`` and ``base ** exponent_b`` in one pass.

    Shares a single unique-value reduction of ``base`` between the two
    exponents (the guardband model needs ``ratio**delta`` and ``ratio**2``
    over the same ratio column); each lane is still computed with CPython
    ``float.__pow__`` exactly as the scalar model does.
    """
    lanes, inverse = unique_inverse(base)
    mapped_a = _np.array([v**exponent_a for v in lanes], dtype=_np.float64)
    mapped_b = _np.array([v**exponent_b for v in lanes], dtype=_np.float64)
    return mapped_a[inverse], mapped_b[inverse]


def exact_exp(x):
    """``math.exp`` applied per lane, bit-identical to the scalar model."""
    return per_unique(x, math.exp)
