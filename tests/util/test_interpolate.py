"""Tests for the table-interpolation primitives."""

import pytest

from repro.util.errors import ConfigurationError
from repro.util.interpolate import LinearTable1D, clamp


class TestClamp:
    def test_within_bounds(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below_bounds(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0

    def test_above_bounds(self):
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_inverted_bounds_raise(self):
        with pytest.raises(ConfigurationError):
            clamp(0.5, 1.0, 0.0)


class TestLinearTable1D:
    def test_exact_breakpoints(self):
        table = LinearTable1D((0.0, 1.0, 2.0), (10.0, 20.0, 40.0))
        assert table(0.0) == 10.0
        assert table(1.0) == 20.0
        assert table(2.0) == 40.0

    def test_interpolation_between_breakpoints(self):
        table = LinearTable1D((0.0, 2.0), (0.0, 10.0))
        assert table(1.0) == pytest.approx(5.0)
        assert table(0.5) == pytest.approx(2.5)

    def test_clamped_extrapolation(self):
        table = LinearTable1D((1.0, 2.0), (5.0, 7.0))
        assert table(0.0) == 5.0
        assert table(10.0) == 7.0

    def test_linear_extrapolation_when_disabled(self):
        table = LinearTable1D((1.0, 2.0), (5.0, 7.0), clamp_ends=False)
        assert table(3.0) == pytest.approx(9.0)
        assert table(0.0) == pytest.approx(3.0)

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(ConfigurationError):
            LinearTable1D((1.0, 1.0), (0.0, 1.0))
        with pytest.raises(ConfigurationError):
            LinearTable1D((2.0, 1.0), (0.0, 1.0))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            LinearTable1D((1.0, 2.0, 3.0), (0.0, 1.0))

    def test_rejects_single_point(self):
        with pytest.raises(ConfigurationError):
            LinearTable1D((1.0,), (1.0,))

    def test_monotone_table_stays_monotone(self):
        table = LinearTable1D((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 4.0, 9.0))
        samples = [table(x / 10.0) for x in range(31)]
        assert samples == sorted(samples)
