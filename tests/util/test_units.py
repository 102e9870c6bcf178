"""Tests for the unit-conversion helpers."""

import pytest

from repro.util import units


def test_watts_to_milliwatts():
    assert units.watts_to_milliwatts(1.5) == pytest.approx(1500.0)
    assert units.watts_to_milliwatts(0.0) == 0.0
