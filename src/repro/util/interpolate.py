"""Table-interpolation primitives.

The behavioural models in this library are driven by curve tables: voltage
regulator efficiency as a function of output current, nominal power as a
function of thermal design power, and the ETEE curves stored inside the
FlexWatts mode predictor.  The paper notes that a modern power-management unit
implements such curves as firmware tables (Sec. 6, footnote 11), so we model
them the same way: sorted breakpoints with linear interpolation and clamped
extrapolation.

Two primitives are provided:

* :class:`LinearTable1D` -- piecewise-linear interpolation over one axis.
* :class:`BilinearTable2D` -- bilinear interpolation over a rectangular grid,
  used for efficiency surfaces indexed by (output current, output voltage).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

from repro.util.errors import ConfigurationError


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` to the closed interval [low, high]."""
    if low > high:
        raise ConfigurationError(f"clamp bounds inverted: [{low}, {high}]")
    return max(low, min(high, value))


class LinearTable1D:
    """Piecewise-linear lookup table over a single axis.

    Parameters
    ----------
    xs:
        Strictly increasing breakpoints.
    ys:
        Values at each breakpoint; same length as ``xs``.
    clamp_ends:
        When ``True`` (the default) queries outside the breakpoint range return
        the endpoint value.  When ``False`` the table extrapolates linearly
        using the first/last segment slope.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float], clamp_ends: bool = True):
        if len(xs) != len(ys):
            raise ConfigurationError(
                f"table axes must have equal length, got {len(xs)} and {len(ys)}"
            )
        if len(xs) < 2:
            raise ConfigurationError("a table needs at least two breakpoints")
        for left, right in zip(xs, xs[1:]):
            if not right > left:
                raise ConfigurationError("table breakpoints must be strictly increasing")
        self._xs = [float(x) for x in xs]
        self._ys = [float(y) for y in ys]
        self._clamp_ends = clamp_ends

    @property
    def xs(self) -> tuple:
        """The breakpoints of the table."""
        return tuple(self._xs)

    @property
    def ys(self) -> tuple:
        """The values of the table."""
        return tuple(self._ys)

    def __call__(self, x: float) -> float:
        """Evaluate the table at ``x``."""
        xs, ys = self._xs, self._ys
        if x <= xs[0]:
            if self._clamp_ends:
                return ys[0]
            return self._extrapolate(x, 0, 1)
        if x >= xs[-1]:
            if self._clamp_ends:
                return ys[-1]
            return self._extrapolate(x, len(xs) - 2, len(xs) - 1)
        hi = bisect_left(xs, x)
        lo = hi - 1
        span = xs[hi] - xs[lo]
        weight = (x - xs[lo]) / span
        return ys[lo] * (1.0 - weight) + ys[hi] * weight

    def _extrapolate(self, x: float, lo: int, hi: int) -> float:
        slope = (self._ys[hi] - self._ys[lo]) / (self._xs[hi] - self._xs[lo])
        return self._ys[lo] + slope * (x - self._xs[lo])


class StackedTables1D:
    """Several :class:`LinearTable1D` tables as NumPy arrays, for lane-wise lookups.

    The arrays are built once, at construction.  :meth:`evaluate` looks
    element ``i`` of ``x`` up in table ``index[i]``; element for element the
    result equals calling that table: the same end handling, the count of
    breakpoints below ``x`` (``bisect_left``) for the segment, and the same
    ``(x - xs[lo]) / span`` weight and ``ys[lo] * (1 - w) + ys[hi] * w``
    blend in float64.
    """

    def __init__(self, tables: Sequence[LinearTable1D]):
        import numpy as np  # only batch callers pay for numpy

        width = max(len(table._xs) for table in tables)
        # Rows of shorter tables pad with +inf breakpoints, which no query
        # counts as lying below it.
        self._xs = np.full((len(tables), width), np.inf)
        self._ys = np.zeros((len(tables), width))
        for row, table in enumerate(tables):
            self._xs[row, : len(table._xs)] = table._xs
            self._ys[row, : len(table._ys)] = table._ys
        self._last = np.array([len(table._xs) - 1 for table in tables])
        self._last_xs = np.array([table._xs[-1] for table in tables])
        self._clamp_ends = np.array([table._clamp_ends for table in tables])

    def evaluate(self, index, x):
        """Table ``index[i]`` at ``x[i]`` for every element of the float64 array ``x``."""
        import numpy as np  # only batch callers pay for numpy

        # Queries outside a table land on its first or last segment, which
        # is where that table extrapolates from.
        hi = np.clip(np.count_nonzero(self._xs[index] < x[:, None], axis=1), 1, self._last[index])
        lo = hi - 1
        x_lo, x_hi = self._xs[index, lo], self._xs[index, hi]
        y_lo, y_hi = self._ys[index, lo], self._ys[index, hi]
        weight = (x - x_lo) / (x_hi - x_lo)
        inside = y_lo * (1.0 - weight) + y_hi * weight
        below = x <= self._xs[index, 0]
        outside = below | (x >= self._last_xs[index])
        clamped = np.where(below, y_lo, y_hi)
        extrapolated = y_lo + (y_hi - y_lo) / (x_hi - x_lo) * (x - x_lo)
        ends = np.where(self._clamp_ends[index], clamped, extrapolated)
        return np.where(outside, ends, inside)


class BilinearTable2D:
    """Bilinear lookup table over a rectangular (x, y) grid.

    Parameters
    ----------
    xs:
        Strictly increasing breakpoints along the first axis.
    ys:
        Strictly increasing breakpoints along the second axis.
    values:
        A nested sequence ``values[i][j]`` giving the table value at
        ``(xs[i], ys[j])``.

    Queries outside the grid are clamped to the nearest edge, mirroring how a
    power-management unit treats out-of-range sensor readings.
    """

    def __init__(
        self,
        xs: Sequence[float],
        ys: Sequence[float],
        values: Sequence[Sequence[float]],
    ):
        if len(values) != len(xs):
            raise ConfigurationError("values must have one row per x breakpoint")
        for row in values:
            if len(row) != len(ys):
                raise ConfigurationError("every row must have one value per y breakpoint")
        self._x_tables = [LinearTable1D(ys, row) for row in values]
        self._xs = [float(x) for x in xs]
        for left, right in zip(self._xs, self._xs[1:]):
            if not right > left:
                raise ConfigurationError("table breakpoints must be strictly increasing")

    def __call__(self, x: float, y: float) -> float:
        """Evaluate the surface at ``(x, y)`` with clamped extrapolation."""
        xs = self._xs
        x = clamp(x, xs[0], xs[-1])
        if x <= xs[0]:
            return self._x_tables[0](y)
        if x >= xs[-1]:
            return self._x_tables[-1](y)
        hi = bisect_left(xs, x)
        lo = hi - 1
        weight = (x - xs[lo]) / (xs[hi] - xs[lo])
        low_val = self._x_tables[lo](y)
        high_val = self._x_tables[hi](y)
        return low_val * (1.0 - weight) + high_val * weight
