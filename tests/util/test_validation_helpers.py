"""Tests for the argument-validation helpers."""

import pytest

from repro.util.errors import ConfigurationError
from repro.util.validation import (
    require_fraction,
    require_non_negative,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(0.1, "x") == 0.1

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ConfigurationError, match="x"):
            require_positive(value, "x")

    @pytest.mark.parametrize(
        "value, message",
        [(float("inf"), "x must be finite, got inf"), (float("nan"), "x must be > 0, got nan"),
         (float("-inf"), "x must be > 0, got -inf")],
    )
    def test_rejects_non_finite(self, value, message):
        with pytest.raises(ConfigurationError) as raised:
            require_positive(value, "x")
        assert str(raised.value) == message


class TestRequireNonNegative:
    def test_accepts_zero_and_positive(self):
        assert require_non_negative(0.0, "x") == 0.0
        assert require_non_negative(5.0, "x") == 5.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.001, "x")

    @pytest.mark.parametrize(
        "value, message",
        [(float("inf"), "x must be finite, got inf"), (float("nan"), "x must be >= 0, got nan")],
    )
    def test_rejects_non_finite(self, value, message):
        with pytest.raises(ConfigurationError) as raised:
            require_non_negative(value, "x")
        assert str(raised.value) == message


class TestRequireFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_fractions(self, value):
        assert require_fraction(value, "x") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ConfigurationError):
            require_fraction(value, "x")
