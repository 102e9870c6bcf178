"""The columnar :class:`ResultSet` container.

Every evaluation surface of the library -- :meth:`PdnSpot.run`, the sweep
shims, the experiment drivers and the CLI ``sweep``/``export`` commands --
produces a :class:`ResultSet`: a small, dependency-free columnar table with
typed accessors, relational-style helpers (:meth:`ResultSet.filter`,
:meth:`ResultSet.pivot`, :meth:`ResultSet.normalize_to`) and loss-free
serialisation (:meth:`ResultSet.to_json` / :meth:`ResultSet.from_json`,
:meth:`ResultSet.to_csv` / :meth:`ResultSet.from_csv`).  The JSON output is
strictly RFC 8259-compliant: non-finite floats are written as ``null`` and
recorded in a ``non_finite`` mask so they round-trip exactly (NaN cells
never leak as the bare ``NaN`` token that breaks ``jq`` and ``JSON.parse``).

A result set is rectangular but *ragged-schema*: rows produced by different
scenario kinds may populate different columns (an active-workload row has an
``application_ratio``, a package-C-state row has a ``power_state``).  Absent
cells hold the :data:`MISSING` sentinel and are dropped again by
:meth:`ResultSet.to_records`, so records round-trip exactly through the
columnar representation.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError, NormalizationError


class _Missing:
    """Sentinel for cells a row does not populate (distinct from ``None``)."""

    _instance: Optional["_Missing"] = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


#: The one shared missing-cell sentinel.
MISSING = _Missing()

Record = Dict[str, object]

#: Labels the JSON ``non_finite`` mask uses for the three non-finite floats
#: (which RFC 8259 cannot represent), and their restored values.
_NON_FINITE_VALUES = {"nan": float("nan"), "inf": math.inf, "-inf": -math.inf}


def _non_finite_label(value: float) -> str:
    """The mask label of one non-finite float."""
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


def _scrub_nested_non_finite(value: object) -> object:
    """Replace non-finite floats *inside* container cells with ``None``.

    Top-level float cells get the exact ``non_finite``-mask treatment in
    :meth:`ResultSet.to_json`; values nested in dict/list/tuple cells cannot
    be addressed by a ``[row, column]`` position, so they degrade to plain
    ``null`` (better than crashing ``allow_nan=False`` or emitting the bare
    ``NaN`` token).  Returns the value unchanged when nothing is non-finite.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        scrubbed: Dict[object, object] = {}
        changed = False
        for key, item in value.items():
            if isinstance(key, float) and not math.isfinite(key):
                # json.dumps would reject (or mis-token) a non-finite float
                # *key*; its label string is the closest legal spelling.
                key = _non_finite_label(key)
                changed = True
            new_item = _scrub_nested_non_finite(item)
            changed = changed or new_item is not item
            scrubbed[key] = new_item
        return scrubbed if changed else value
    if isinstance(value, (list, tuple)):
        scrubbed_items = [_scrub_nested_non_finite(item) for item in value]
        if all(new is old for new, old in zip(scrubbed_items, value)):
            return value
        # A plain list, deliberately: json.dumps renders lists, tuples and
        # namedtuples as the same array, and reconstructing type(value)
        # would crash on namedtuples (their ctor takes one arg per field).
        return scrubbed_items
    return value


_float_repr = float.__repr__
_isfinite = math.isfinite

#: JSON text of a cell by its exact type, as ``json.dumps`` writes it
#: (floats must be finite; non-finite ones are masked first).
_SCALAR_ENCODERS: Dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    float: _float_repr,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
    _Missing: lambda _: "null",
}
#: Cell types no two distinct values of which compare equal except the
#: signed zeros, so a column of them can be encoded through a table of its
#: distinct cells (``True == 1 == 1.0`` rules out bools and ints).
_TABLE_KINDS = frozenset((str, float, _Missing))


def _encode_scalar(cell: object) -> str:
    """The JSON text of one cell of a type in :data:`_SCALAR_ENCODERS`."""
    return _SCALAR_ENCODERS[type(cell)](cell)


def _dumps(value: object, indent: Optional[str]) -> str:
    """One value as :meth:`ResultSet.to_json`'s ``json.dumps`` call renders it."""
    return json.dumps(value, indent=indent, default=str, allow_nan=False)


def _encode_column(
    cells: List[object],
    column_index: int,
    non_finite: Dict[str, List[Tuple[int, int]]],
    indent: Optional[str],
) -> List[str]:
    """The JSON text of every cell of one column, at row depth.

    A column of plain scalars (``str``, finite ``float``, ``int``,
    ``bool``, ``None``, :data:`MISSING`) is encoded by one ``map`` call --
    through a table of its distinct cells when values repeat (PDN names,
    grid axes), which encodes the 5040-row sweep about a third faster.
    Other columns go cell by cell: non-finite float cells become ``null``
    with their ``(row, column)`` position added to ``non_finite`` under
    their label, and containers and other objects take a per-cell
    ``json.dumps``.
    """
    kinds = set(map(type, cells))
    if kinds <= _SCALAR_ENCODERS.keys():
        floats = cells if kinds == {float} else [cell for cell in cells if type(cell) is float]
        if all(map(_isfinite, floats)):
            if kinds <= _TABLE_KINDS:
                distinct = set(cells)
                # 0.0 == -0.0 would share one table entry, so zeros go direct.
                if 2 * len(distinct) <= len(cells) and 0.0 not in distinct:
                    texts_of = dict(zip(distinct, map(_encode_scalar, distinct)))
                    return list(map(texts_of.__getitem__, cells))
            return list(map(_encode_scalar, cells))
    # A container cell's lines sit two levels deep in the rows array.
    nested = None if indent is None else "\n" + indent * 2
    texts: List[str] = []
    append = texts.append
    for row_index, cell in enumerate(cells):
        encode = _SCALAR_ENCODERS.get(type(cell))
        if isinstance(cell, float) and not _isfinite(cell):
            non_finite.setdefault(_non_finite_label(cell), []).append(
                (row_index, column_index)
            )
            append("null")
        elif encode is not None:
            append(encode(cell))
        else:
            if isinstance(cell, (dict, list, tuple)):
                cell = _scrub_nested_non_finite(cell)
            text = _dumps(cell, indent)
            append(text if nested is None else text.replace("\n", nested))
    return texts


def _join_rows(rows: List[Tuple[str, ...]], indent: Optional[str]) -> str:
    """The ``rows`` array from per-row cell texts, laid out like ``json.dumps``."""
    if not rows:
        return "[]"
    if indent is None:
        row_open, cell_separator, row_close, row_separator = "[", ", ", "]", ", "
    else:
        # The array is rendered at depth zero; to_json indents its lines.
        row_open = "[\n" + indent * 2
        cell_separator = ",\n" + indent * 2
        row_close = "\n" + indent + "]"
        row_separator = ",\n" + indent
    rows_text = row_open + (row_close + row_separator + row_open).join(
        map(cell_separator.join, rows)
    ) + row_close
    if indent is None:
        return "[" + rows_text + "]"
    return "[\n" + indent + rows_text + "\n]"


def _parse_csv_cell(token: str) -> object:
    """Restore one CSV cell to its most specific Python value.

    The inverse of the ``str()`` rendering :meth:`ResultSet.to_csv` applies:
    empty -> :data:`MISSING`, Python literal -> that literal, numeric-looking
    (incl. ``nan``/``inf``) -> float, anything else -> the raw string.
    """
    if token == "":
        return MISSING
    try:
        return ast.literal_eval(token)
    except (ValueError, SyntaxError, MemoryError, RecursionError):
        pass
    try:
        return float(token)  # literal_eval rejects nan/inf spellings
    except ValueError:
        return token


def _cells_equal(left: object, right: object) -> bool:
    """Cell equality with ``NaN == NaN`` (used by :meth:`ResultSet.__eq__`)."""
    if (
        isinstance(left, float)
        and isinstance(right, float)
        and math.isnan(left)
        and math.isnan(right)
    ):
        return True
    return left == right


def _hashable(value: object) -> object:
    """A hashable stand-in for a cell value (dict/list cells become tuples).

    Scenario parameter-override cells are stored as dictionaries for readable
    records and JSON; grouping and dedup keys need a hashable form.
    """
    if isinstance(value, dict):
        return tuple(sorted((key, _hashable(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(item) for item in value)
    return value


class ResultSet:
    """An immutable columnar table of evaluation results.

    Parameters
    ----------
    columns:
        Mapping of column name to cell list; all columns must have the same
        length.  Insertion order is the column order.
    name:
        Optional label (usually the name of the :class:`Study` that produced
        the results); carried through serialisation.
    """

    __slots__ = ("_columns", "_length", "name", "run_stats")

    def __init__(self, columns: Mapping[str, Sequence[object]], name: str = ""):
        self._columns: Dict[str, List[object]] = {
            str(key): list(values) for key, values in columns.items()
        }
        lengths = {len(values) for values in self._columns.values()}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"ragged ResultSet: column lengths {sorted(lengths)} differ"
            )
        self._length = lengths.pop() if lengths else 0
        self.name = name
        #: Advisory :class:`~repro.obs.runstats.RunStats` of the run that
        #: produced this table (set by the engines' ``run`` methods).
        #: Never serialized and never part of equality, so bit-identity
        #: contracts across the cache tiers and the serve boundary are untouched.
        self.run_stats = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls, records: Iterable[Record], name: str = ""
    ) -> "ResultSet":
        """Build a result set from row dictionaries.

        The column order is the first-seen key order across all records; cells
        a record does not provide are filled with :data:`MISSING`.
        """
        columns: Dict[str, List[object]] = {}
        length = 0
        for record in records:
            for key, value in record.items():
                if key not in columns:
                    columns[key] = [MISSING] * length
                columns[key].append(value)
            length += 1
            for key, cells in columns.items():
                if len(cells) < length:
                    cells.append(MISSING)
        return cls(columns, name=name)

    @classmethod
    def concat(cls, resultsets: Iterable["ResultSet"], name: str = "") -> "ResultSet":
        """Concatenate several result sets row-wise (union of columns)."""
        records: List[Record] = []
        for resultset in resultsets:
            records.extend(resultset.to_records())
        return cls.from_records(records, name=name)

    # ------------------------------------------------------------------ #
    # Shape and access
    # ------------------------------------------------------------------ #
    @property
    def columns(self) -> Tuple[str, ...]:
        """The column names, in order."""
        return tuple(self._columns)

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Record]:
        return iter(self.to_records())

    def __eq__(self, other: object) -> bool:
        """Column-order- and cell-wise equality, treating NaN cells as equal.

        Plain ``==`` on the column lists would make any result set with a
        NaN cell unequal to *itself de-serialised* (``nan != nan``), which
        broke the documented JSON/CSV round-trip guarantee; NaN in the same
        cell on both sides therefore compares equal here.
        """
        if not isinstance(other, ResultSet):
            return NotImplemented
        if self.columns != other.columns or self._length != other._length:
            return False
        if self._columns == other._columns:
            return True  # C-speed fast path; NaN-free tables end here
        return all(
            _cells_equal(cells[index], other._columns[name][index])
            for name, cells in self._columns.items()
            for index in range(self._length)
        )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<ResultSet{label}: {self._length} rows x {len(self._columns)} columns>"

    def column(self, name: str) -> List[object]:
        """The cells of one column (a copy), including :data:`MISSING` cells."""
        if name not in self._columns:
            raise ConfigurationError(
                f"unknown column {name!r}; available: {', '.join(self._columns)}"
            )
        return list(self._columns[name])

    def unique(self, name: str) -> List[object]:
        """Distinct non-missing values of one column, in first-seen order."""
        seen: Dict[object, object] = {}
        for value in self.column(name):
            key = _hashable(value)
            if value is not MISSING and key not in seen:
                seen[key] = value
        return list(seen.values())

    def row(self, index: int) -> Record:
        """One row as a record (missing cells dropped)."""
        return {
            key: cells[index]
            for key, cells in self._columns.items()
            if cells[index] is not MISSING
        }

    # ------------------------------------------------------------------ #
    # Relational helpers
    # ------------------------------------------------------------------ #
    def filter(
        self,
        predicate: Optional[Callable[[Record], bool]] = None,
        **equals: object,
    ) -> "ResultSet":
        """Rows matching ``predicate`` and/or column equality constraints.

        ``rs.filter(pdn="IVR", tdp_w=4.0)`` keeps the rows whose ``pdn`` cell
        equals ``"IVR"`` and whose ``tdp_w`` cell equals ``4.0``; rows missing
        a constrained column never match, and constraining a column the result
        set does not have at all is an error (usually a typo'd name).
        """
        constraints = []
        for key, value in equals.items():
            if key not in self._columns:
                raise ConfigurationError(
                    f"unknown column {key!r}; available: {', '.join(self._columns)}"
                )
            constraints.append((self._columns[key], value))
        indices: List[int] = []
        for index in range(self._length):
            if any(cells[index] != value for cells, value in constraints):
                continue
            if predicate is not None and not predicate(self.row(index)):
                continue
            indices.append(index)
        columns = {
            key: [cells[index] for index in indices]
            for key, cells in self._columns.items()
        }
        return ResultSet(columns, name=self.name)

    def pivot(
        self, index: str, columns: str, values: str
    ) -> Dict[object, Dict[object, object]]:
        """Pivot into a nested ``index -> column -> value`` mapping.

        The output feeds :func:`repro.analysis.reporting.format_mapping_table`
        directly; with duplicate ``(index, column)`` pairs the last row wins.
        """
        for name in (index, columns, values):
            if name not in self._columns:
                raise ConfigurationError(
                    f"unknown column {name!r}; available: {', '.join(self._columns)}"
                )
        table: Dict[object, Dict[object, object]] = {}
        for row_index in range(self._length):
            row_key = self._columns[index][row_index]
            column_key = self._columns[columns][row_index]
            value = self._columns[values][row_index]
            if MISSING in (row_key, column_key, value):
                continue
            table.setdefault(row_key, {})[column_key] = value
        return table

    def normalize_to(
        self,
        baseline: str,
        value_columns: Optional[Sequence[str]] = None,
        key_column: str = "pdn",
        metric_columns: Optional[Sequence[str]] = None,
    ) -> "ResultSet":
        """Divide the value columns by the ``baseline`` row of each scenario.

        Rows are grouped by scenario -- every column that is neither
        ``key_column``, nor a value column, nor one of the metric columns
        (columns that vary per PDN and are never part of a scenario's
        identity); within each group the value cells are divided by the cells
        of the row whose ``key_column`` equals ``baseline`` -- the paper's
        "normalised to the IVR PDN" convention.

        ``metric_columns`` defaults to the analytic-sweep metrics
        (``etee``/``supply_power_w``/``nominal_power_w``); result sets with a
        different metric schema (e.g. the interval-simulation output, whose
        mode-switch counters also vary per PDN) pass their own metric set --
        see :data:`repro.sim.adapters.SIM_METRIC_COLUMNS`.

        Raises
        ------
        NormalizationError
            When a scenario has no baseline row, or the baseline row's value
            is missing, zero or NaN -- naming the offending baseline key,
            column and scenario instead of propagating a
            ``ZeroDivisionError`` or silently emitting NaN cells.  The error
            is a ``ValueError`` subclass (and a ``ConfigurationError``).
        """
        if key_column not in self._columns:
            raise ConfigurationError(f"key column {key_column!r} not in result set")
        if metric_columns is None:
            metric_columns = ("etee", "supply_power_w", "nominal_power_w")
        if value_columns is None:
            value_columns = [
                column for column in metric_columns if column in self._columns
            ]
        if not value_columns:
            raise ConfigurationError("no value columns to normalise")
        for column in value_columns:
            if column not in self._columns:
                raise ConfigurationError(f"value column {column!r} not in result set")
        non_scenario = {key_column, *metric_columns}
        non_scenario.update(value_columns)
        group_columns = [
            column for column in self._columns if column not in non_scenario
        ]

        def group_key(index: int) -> Tuple[object, ...]:
            """The scenario identity of one row (hashable group columns)."""
            return tuple(
                _hashable(self._columns[column][index]) for column in group_columns
            )

        references: Dict[Tuple[object, ...], Dict[str, object]] = {}
        for index in range(self._length):
            if self._columns[key_column][index] == baseline:
                references[group_key(index)] = {
                    column: self._columns[column][index] for column in value_columns
                }
        normalised = {key: list(cells) for key, cells in self._columns.items()}
        for index in range(self._length):
            reference = references.get(group_key(index))
            if reference is None:
                raise NormalizationError(
                    f"no {key_column}={baseline!r} row for scenario {group_key(index)!r}"
                )
            for column in value_columns:
                cell = normalised[column][index]
                if cell is MISSING:
                    continue
                reference_value = reference[column]
                if reference_value is MISSING:
                    # Leaving the absolute value would silently mix raw and
                    # normalised cells in one column.
                    raise NormalizationError(
                        f"baseline {key_column}={baseline!r} row for scenario "
                        f"{group_key(index)!r} has no {column!r} value; "
                        "cannot normalise"
                    )
                if reference_value == 0.0:
                    raise NormalizationError(
                        f"baseline {key_column}={baseline!r} value of {column!r} "
                        f"for scenario {group_key(index)!r} is zero; "
                        "cannot normalise"
                    )
                if isinstance(reference_value, float) and reference_value != reference_value:
                    raise NormalizationError(
                        f"baseline {key_column}={baseline!r} value of {column!r} "
                        f"for scenario {group_key(index)!r} is NaN; "
                        "cannot normalise"
                    )
                normalised[column][index] = cell / reference_value
        return ResultSet(normalised, name=self.name)

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_records(self) -> List[Record]:
        """The rows as plain dictionaries (missing cells dropped)."""
        return [self.row(index) for index in range(self._length)]

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise as strictly RFC 8259-compliant JSON.

        Missing cells become ``null``.  Non-finite floats -- which
        ``json.dumps`` would otherwise emit as the bare ``NaN`` /
        ``Infinity`` tokens no standard JSON parser (``jq``, JavaScript's
        ``JSON.parse``) accepts -- are *also* written as ``null``, with
        their positions recorded in a ``non_finite`` mask so
        :meth:`from_json` restores them exactly; the output always parses
        with ``allow_nan``-strict decoders.  Non-finite floats nested
        *inside* container cells (a ``parameters`` dict, say) cannot be
        mask-addressed and degrade to plain ``null``.

        The text is exactly what ``json.dumps(payload, indent=indent,
        default=str, allow_nan=False)`` writes for the ``{"name",
        "columns", "rows"[, "non_finite"]}`` payload, but it is encoded a
        column at a time: ``str`` and finite ``float`` cells go through the
        C-level string encoder and ``float.__repr__``, and only other cells
        take a per-cell ``json.dumps``.
        """
        if indent is not None and not isinstance(indent, str):
            indent = " " * indent  # json.dumps's own normalisation
        non_finite: Dict[str, List[Tuple[int, int]]] = {}
        encoded = [
            _encode_column(cells, column_index, non_finite, indent)
            for column_index, cells in enumerate(self._columns.values())
        ]
        rows = list(zip(*encoded))  # a table without columns has no rows
        # The mask lists positions in row-major order, and its labels in the
        # order their first position is met.
        mask = {
            label: [list(position) for position in sorted(positions)]
            for label, positions in sorted(
                non_finite.items(), key=lambda item: min(item[1])
            )
        }
        fields = [
            ("name", _dumps(self.name, indent)),
            ("columns", _dumps(list(self._columns), indent)),
            ("rows", _join_rows(rows, indent)),
        ]
        if mask:
            fields.append(("non_finite", _dumps(mask, indent)))
        if indent is None:
            return "{" + ", ".join(f'"{key}": {text}' for key, text in fields) + "}"
        # Every member sits one level deep: indent each line of its text.
        newline = "\n" + indent
        return (
            "{" + newline
            + ("," + newline).join(
                f'"{key}": ' + text.replace("\n", newline) for key, text in fields
            )
            + "\n}"
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a result set from :meth:`to_json` output.

        ``null`` cells listed in the payload's ``non_finite`` mask are
        restored to ``float("nan")`` / ``±inf``; every other ``null`` is a
        missing cell, exactly as written.
        """
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ResultSet":
        """Rebuild a result set from already-decoded :meth:`to_json` output.

        ``from_json(text)`` is ``from_payload(json.loads(text))``, with the
        same validation; a caller that decoded a document embedding the
        result set (a served response) rebuilds it without a second parse.
        """
        try:
            column_names = payload["columns"]
            rows = payload["rows"]
        except (TypeError, KeyError) as error:
            raise ConfigurationError(
                "not a serialised ResultSet: expected 'columns' and 'rows' keys"
            ) from error
        restored: Dict[Tuple[int, int], float] = {}
        mask = payload.get("non_finite", {})
        if not isinstance(mask, dict):
            raise ConfigurationError("'non_finite' must map labels to positions")
        for label, positions in mask.items():
            if label not in _NON_FINITE_VALUES:
                raise ConfigurationError(
                    f"unknown non-finite label {label!r}; expected one of: "
                    f"{', '.join(_NON_FINITE_VALUES)}"
                )
            if not isinstance(positions, (list, tuple)):
                raise ConfigurationError(
                    f"malformed non_finite position list {positions!r}"
                )
            for position in positions:
                if (
                    not isinstance(position, (list, tuple))
                    or len(position) != 2
                    or not all(isinstance(index, int) for index in position)
                ):
                    raise ConfigurationError(
                        f"malformed non_finite position {position!r}; "
                        "expected [row, column]"
                    )
                row_index, column_index = position
                try:
                    is_null = (
                        row_index >= 0
                        and column_index >= 0
                        and rows[row_index][column_index] is None
                    )
                except (IndexError, TypeError):
                    is_null = False
                if not is_null:
                    # A mask pointing at a missing or non-null cell means the
                    # payload was truncated or edited; silently dropping the
                    # NaN would change data, so fail like the other malformed
                    # mask shapes do.
                    raise ConfigurationError(
                        f"non_finite position {position!r} does not reference "
                        "a null cell of 'rows'"
                    )
                restored[(row_index, column_index)] = _NON_FINITE_VALUES[label]
        columns: Dict[str, List[object]] = {name: [] for name in column_names}
        for row_index, row in enumerate(rows):
            if len(row) != len(column_names):
                raise ConfigurationError(
                    f"row width {len(row)} does not match {len(column_names)} columns"
                )
            for column_index, (name, cell) in enumerate(zip(column_names, row)):
                if cell is None:
                    cell = restored.get((row_index, column_index), MISSING)
                columns[name].append(cell)
        return cls(columns, name=payload.get("name", ""))

    def to_csv(self) -> str:
        """Serialise as CSV with a header row (missing cells become empty)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(list(self._columns))
        for index in range(self._length):
            writer.writerow(
                [
                    "" if cells[index] is MISSING else cells[index]
                    for cells in self._columns.values()
                ]
            )
        return buffer.getvalue()

    @classmethod
    def from_csv(cls, text: str, name: str = "") -> "ResultSet":
        """Rebuild a result set from :meth:`to_csv` output (typed restore).

        CSV is stringly typed, so cell types are restored heuristically,
        matching how :meth:`to_csv` rendered them: empty cells become
        :data:`MISSING`; Python literals (ints, floats, booleans, the
        ``str()`` form of dict/list/tuple cells such as the ``parameters``
        column) are parsed back with :func:`ast.literal_eval`; ``nan`` /
        ``inf`` / ``-inf`` become the non-finite floats; everything else
        stays a string.  ``from_csv(rs.to_csv()) == rs`` holds for tables of
        non-empty strings, ints, floats (including NaN), booleans and dict
        cells -- the documented round-trip.  Four CSV-inherent ambiguities
        are resolved lossily: empty-*string* and ``None`` cells come back
        as :data:`MISSING` (CSV writes all three as an empty field); cells that
        only *look* numeric (a string column holding ``"42"``) come back as
        numbers; and a *container* cell holding a non-finite float (its
        ``str()`` form embeds a bare ``nan``/``inf`` no literal parser
        accepts) comes back as that string.  Use JSON -- whose
        ``non_finite`` mask is exact -- where those distinctions matter.
        """
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigurationError("empty CSV: expected a header row") from None
        if len(set(header)) != len(header):
            raise ConfigurationError("duplicate column names in CSV header")
        columns: Dict[str, List[object]] = {column: [] for column in header}
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue  # csv.reader yields [] for stray blank lines
            if len(row) != len(header):
                raise ConfigurationError(
                    f"CSV line {line_number}: row width {len(row)} does not "
                    f"match {len(header)} columns"
                )
            for column, token in zip(header, row):
                columns[column].append(_parse_csv_cell(token))
        return cls(columns, name=name)
