"""Byte-identity of the column-wise ``ResultSet.to_json`` encoder.

``to_json`` encodes a column at a time with C-level primitives, but its
output must stay exactly what one ``json.dumps`` call over the row-major
payload writes.  These tests pin that property over seeded random tables --
MISSING cells, NaN/±inf at random positions (mask order included), non-ASCII
strings, ints, bools, ``None``, nested ``parameters`` containers and
``default=str`` objects -- for every indent, plus the ``from_json`` round
trip.
"""

import collections
import enum
import json
import math
import random

import numpy as np
import pytest

from repro.analysis.resultset import MISSING, ResultSet, _non_finite_label, _scrub_nested_non_finite

INDENTS = (None, 0, 2, 4)

STRINGS = ("IVR", "FlexWatts", "", "quote\"back\\slash", "tab\there\nnewline",
           "µW", "ETEE – 効率", "emoji \U0001F50B", "\x00\x1f\x7f", "C8")


class Colour(enum.Enum):
    RED = "red"


Pair = collections.namedtuple("Pair", "low high")


def reference_json(resultset: ResultSet, indent) -> str:
    """The row-major ``json.dumps`` encoding ``to_json`` must reproduce."""
    columns = {name: resultset.column(name) for name in resultset.columns}
    rows = []
    non_finite = {}
    for index in range(len(resultset)):
        row = []
        for column_index, cells in enumerate(columns.values()):
            cell = cells[index]
            if cell is MISSING:
                cell = None
            elif isinstance(cell, float) and not math.isfinite(cell):
                non_finite.setdefault(_non_finite_label(cell), []).append(
                    [index, column_index]
                )
                cell = None
            elif isinstance(cell, (dict, list, tuple)):
                cell = _scrub_nested_non_finite(cell)
            row.append(cell)
        rows.append(row)
    payload = {"name": resultset.name, "columns": list(columns), "rows": rows}
    if non_finite:
        payload["non_finite"] = non_finite
    return json.dumps(payload, indent=indent, default=str, allow_nan=False)


def random_float(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.06:
        return rng.choice((math.nan, math.inf, -math.inf))
    if roll < 0.1:
        return rng.choice((0.0, -0.0, 1e-300, 5e-324, 1.7976931348623157e308))
    return rng.uniform(-1e3, 1e3)


def random_cell(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.15:
        return MISSING
    if roll < 0.45:
        return random_float(rng)
    if roll < 0.6:
        return rng.choice(STRINGS)
    if roll < 0.68:
        return rng.randint(-10**20, 10**20)
    if roll < 0.74:
        return rng.choice((True, False))
    if roll < 0.77:
        return None
    if roll < 0.87:
        return {
            "ivr_tolerance_band_v": random_float(rng),
            "nested": {"scale": [random_float(rng), rng.choice(STRINGS)]},
            "µ": rng.randint(0, 9),
        }
    if roll < 0.9:
        return [random_float(rng), (1, "a"), {}]
    if roll < 0.93:
        return Pair(random_float(rng), 2.0)
    if roll < 0.96:
        return np.float64(rng.uniform(0.0, 1.0))
    return Colour.RED


def random_resultset(seed: int) -> ResultSet:
    """A ragged table whose columns are homogeneous or mixed at random."""
    rng = random.Random(seed)
    rows = rng.randint(0, 40)
    columns = {}
    for index in range(rng.randint(0, 7)):
        kind = rng.choice(("float", "str", "mixed", "float+missing", "axis"))
        if kind == "axis":
            # Few repeated values (a grid axis), sometimes both signed zeros.
            pool = rng.sample((4.0, 18.0, 0.1 + 0.2, 0.0, -0.0, 1e-7, "C8", MISSING), 4)
            cells = [rng.choice(pool) for _ in range(rows)]
        elif kind == "float":
            cells = [rng.uniform(0.0, 60.0) for _ in range(rows)]
        elif kind == "str":
            cells = [rng.choice(STRINGS) for _ in range(rows)]
        elif kind == "float+missing":
            cells = [MISSING if rng.random() < 0.3 else random_float(rng) for _ in range(rows)]
        else:
            cells = [random_cell(rng) for _ in range(rows)]
        columns[f"col{index}_{kind}_é"] = cells
    return ResultSet(columns, name=rng.choice(("sweep", "", "étude ☃")))


@pytest.mark.parametrize("indent", INDENTS)
@pytest.mark.parametrize("seed", range(60))
def test_to_json_is_byte_identical_to_json_dumps(seed, indent):
    resultset = random_resultset(seed)
    assert resultset.to_json(indent=indent) == reference_json(resultset, indent)


@pytest.mark.parametrize("indent", INDENTS)
def test_mask_label_order_follows_row_major_first_position(indent):
    # The -inf in row 0 sits in a later column than the NaN of row 1, but it
    # is met first row-major, so its label must come first.
    resultset = ResultSet(
        {"a": [1.0, math.nan, math.inf], "b": [-math.inf, 2.0, math.nan]}
    )
    text = resultset.to_json(indent=indent)
    assert text == reference_json(resultset, indent)
    mask = json.loads(text)["non_finite"]
    assert list(mask) == ["-inf", "nan", "inf"]
    assert mask["nan"] == [[1, 0], [2, 1]]


@pytest.mark.parametrize("indent", INDENTS)
def test_repeated_values_keep_signed_zeros_apart(indent):
    resultset = ResultSet(
        {
            "zeros": [0.0, -0.0, 0.0, -0.0, 4.0, 4.0],
            "axis": [4.0, 4.0, 18.0, MISSING, 18.0, 4.0],
            "label": ["IVR", MISSING, "IVR", "LDO", "LDO", MISSING],
        }
    )
    text = resultset.to_json(indent=indent)
    assert text == reference_json(resultset, indent)
    assert json.loads(text)["rows"][1][0] == 0.0
    assert "-0.0" in text


@pytest.mark.parametrize("indent", INDENTS)
def test_engine_sweep_output_is_byte_identical(indent):
    from repro import PdnSpot, Study

    resultset = PdnSpot().run(Study.over_tdps([4.0, 18.0, 50.0]))
    assert resultset.to_json(indent=indent) == reference_json(resultset, indent)


@pytest.mark.parametrize("indent", INDENTS)
def test_empty_tables(indent):
    for resultset in (ResultSet({}), ResultSet({"a": [], "b": []}, name="x")):
        assert resultset.to_json(indent=indent) == reference_json(resultset, indent)


@pytest.mark.parametrize("indent", INDENTS)
@pytest.mark.parametrize("seed", range(20))
def test_from_json_round_trip(seed, indent):
    rng = random.Random(1000 + seed)
    rows = rng.randint(1, 30)
    resultset = ResultSet.from_records(
        [
            {
                "pdn": rng.choice(STRINGS),
                "etee": random_float(rng),
                **({"power_state": "C8"} if rng.random() < 0.4 else {}),
                "count": rng.randint(0, 100),
                "flag": rng.random() < 0.5,
                **(
                    {"parameters": {"ivr_tolerance_band_v": rng.uniform(0.01, 0.03)}}
                    if rng.random() < 0.3
                    else {}
                ),
            }
            for _ in range(rows)
        ],
        name="round-trip",
    )
    assert ResultSet.from_json(resultset.to_json(indent=indent)) == resultset
