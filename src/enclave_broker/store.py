"""Source-of-truth tables, contract-scoped segment extraction, and the
one scan path that both extraction and the gateway run.

The store is the only component that ever sees full tables. Everything
downstream works on Segments: filtered, projected, point-in-time
snapshots cut to exactly what one grant allows.
"""

from __future__ import annotations

import csv
import math
from datetime import date
import operator
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, NoReturn

from .contracts import Grant
from .errors import BadConfig, DuplicateTable, StateError, TypeMismatch, UnknownSource
from .model import (
    COLUMN_TYPES,
    DATE,
    INT,
    REAL,
    TEXT,
    Predicate,
    SchemaCatalog,
    check_cell,
    date_to_days,
    days_to_date,
    normalize_date,
)


@dataclass
class Table:
    name: str  # qualified "namespace.table"
    schema: tuple[tuple[str, str], ...]  # (column, type) in declared order
    rows: list[tuple]


@dataclass(frozen=True)
class Segment:
    """A snapshot slice of one table, scoped by one grant.

    The segment is its own tuple of immutable row tuples and holds no
    store handle, so no later change to the source table can show up
    in it; it carries everything the gateway needs after provisioning.
    """

    origin: str  # qualified source table name
    columns: tuple[str, ...]
    column_types: tuple[str, ...]
    rows: tuple[tuple, ...]
    extracted_at: int


Matcher = Callable[[tuple], bool]

# Each query operator as a function of (cell, literal).
_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _match_nothing(row: tuple) -> bool:
    return False


def _on_day_count(op: Callable) -> Callable:
    """`op` applied to a DATE cell's day count instead of its text."""
    return lambda cell, number: op(date_to_days(cell), number)


def compile_predicate(schema: tuple[tuple[str, str], ...], p: Predicate | None) -> Matcher | None:
    """Compile `p` against rows laid out by `schema`; None matches every row.

    Column indexes and operators are resolved here, once, into one
    (index, operator function, literal) term per conjunct. Cells are
    type-checked at load, so the column type fixes each cell's value
    family: a comparison across families (TEXT against a number) or on a
    column the schema lacks can never hold, and the whole predicate
    becomes a matcher that rejects every row without reading any.

    DATE cells are normalized ISO text, which sorts in day order, so a
    DATE literal on a DATE column becomes that text and compares with
    the cell as it is. An INT or REAL literal on a DATE column compares
    with each cell's day count, which is parsed per row.
    """
    if p is None or not p.conjuncts:
        return None
    index = {col: (i, typ) for i, (col, typ) in enumerate(schema)}
    terms = []
    for comp in p.conjuncts:
        if comp.column not in index:
            return _match_nothing
        i, typ = index[comp.column]
        kind, op, value = comp.literal.kind, _OPS[comp.op], comp.literal.value
        if (typ == TEXT) != (kind == TEXT):
            return _match_nothing
        if typ == DATE:
            if kind == DATE:
                value = days_to_date(value)
            else:
                op = _on_day_count(op)
        terms.append((i, op, value))
    if len(terms) == 1:
        # A scan calls the matcher once per row; one term needs no loop.
        ((i, op, value),) = terms
        return lambda row: op(row[i], value)

    def match(row: tuple) -> bool:
        for i, op, value in terms:
            if not op(row[i], value):
                return False
        return True

    return match


def eval_predicate(row: tuple, schema: tuple[tuple[str, str], ...], p: Predicate | None) -> bool:
    """Does `row` (laid out by `schema`) satisfy every conjunct of `p`?"""
    match = compile_predicate(schema, p)
    return match is None or match(row)


def scan(rows: Iterable[tuple], match: Matcher | None, limit: int | None = None) -> list[tuple]:
    """The rows that `match` accepts, in order, stopping after `limit` of them."""
    if match is _match_nothing:
        return []
    hits = rows if match is None else filter(match, rows)
    return list(hits if limit is None else islice(hits, limit))


def project(picks: list[int], width: int) -> Callable[[list[tuple]], tuple[tuple, ...]]:
    """A function that cuts rows of `width` cells down to the `picks` columns.

    Rows are immutable tuples, so when `picks` keeps every column in
    order they pass through unchanged instead of being rebuilt.
    """
    if picks == list(range(width)):
        return tuple
    get = operator.itemgetter(*picks)
    if len(picks) == 1:
        # A one-column itemgetter returns the bare cell; zip over one
        # iterable wraps each cell back into a 1-tuple.
        return lambda rows: tuple(zip(map(get, rows)))
    return lambda rows: tuple(map(get, rows))


class TableStore:
    """Registry of immutable-schema tables; every read is counted.

    The read counter exists so tests can prove the serving path never
    touches the store once an enclave is sealed.
    """

    def __init__(self):
        self._tables: dict[str, Table] = {}
        self.reads = 0

    def register_table(
        self, name: str, schema: tuple[tuple[str, str], ...], rows: list[tuple]
    ) -> Table:
        if name in self._tables:
            raise DuplicateTable(f"table {name} already registered")
        if "." not in name:
            raise BadConfig(f"table name must be qualified namespace.table, got {name!r}")
        for col, typ in schema:
            if typ not in COLUMN_TYPES:
                raise TypeMismatch(f"{name}.{col}: unknown column type {typ!r}")
        names = [col for col, _ in schema]
        if len(set(names)) != len(names):
            raise BadConfig(f"table {name}: duplicate column names")
        checked = _checked_rows(name, schema, rows)
        table = Table(name, tuple(schema), checked)
        self._tables[name] = table
        return table

    def append_row(self, name: str, row: tuple) -> None:
        """Admin-side mutation; serialized by the broker, never by the gateway."""
        table = self._get(name)
        if len(row) != len(table.schema):
            raise TypeMismatch(f"{name}: expected {len(table.schema)} cells")
        table.rows.append(
            tuple(check_cell(cell, typ, f"{name}.{col}") for cell, (col, typ) in zip(row, table.schema))
        )

    def _get(self, name: str) -> Table:
        if name not in self._tables:
            raise UnknownSource(f"unknown table {name}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def catalog(self) -> SchemaCatalog:
        return SchemaCatalog({name: t.schema for name, t in self._tables.items()})

    def extract_segment(self, name: str, g: Grant, now: int) -> Segment:
        """Filter by the grant predicate, project to the granted columns.

        Row order follows the source table. The grant must already have
        been validated against this store's catalog.
        """
        self.reads += 1
        table = self._get(name)
        schema = table.schema
        if g.columns is None:
            wanted = [col for col, _ in schema]
        else:
            wanted = list(g.columns)
        index = {col: i for i, (col, _) in enumerate(schema)}
        for col in wanted:
            if col not in index:
                raise StateError(f"grant names column {col!r} absent from {name}; validate first")
        picks = [index[col] for col in wanted]
        types = [schema[i][1] for i in picks]
        matched = scan(table.rows, compile_predicate(schema, g.row_predicate))
        rows = project(picks, len(schema))(matched)
        return Segment(
            origin=name,
            columns=tuple(wanted),
            column_types=tuple(types),
            rows=rows,
            extracted_at=now,
        )


def _checked_rows(name: str, schema: tuple[tuple[str, str], ...], rows: list) -> list[tuple]:
    """`rows` as tuples whose every cell passes `check_cell`, normalized
    as `check_cell` normalizes it.

    Each column is checked as a whole. If every row is a tuple of the
    right width and every column holds only final values of its type,
    the rows are kept as given; anything else goes through the per-cell
    loop, which raises the first error in row-major order or normalizes
    the odd but acceptable cell.
    """
    if all(type(row) is tuple and len(row) == len(schema) for row in rows) and all(
        _final_column(list(map(operator.itemgetter(i), rows)), typ) for i, (_, typ) in enumerate(schema)
    ):
        return list(rows)
    checked = []
    for rownum, row in enumerate(rows):
        if len(row) != len(schema):
            raise TypeMismatch(f"{name} row {rownum}: expected {len(schema)} cells")
        checked.append(
            tuple(
                check_cell(cell, typ, f"{name} row {rownum} column {col}")
                for cell, (col, typ) in zip(row, schema)
            )
        )
    return checked


def _final_column(cells: list, column_type: str) -> bool:
    """Whether every cell is a value `check_cell` keeps as it is: ints
    for INT, strs for TEXT, finite floats for REAL, and for DATE strs
    already in YYYY-MM-DD form, each distinct one parsed once."""
    kinds = set(map(type, cells))
    if column_type == INT:
        return kinds <= {int}
    if column_type == TEXT:
        return kinds <= {str}
    if column_type == DATE:
        return kinds <= {str} and _normal_dates(list(set(cells)))
    return column_type == REAL and kinds <= {float} and all(map(math.isfinite, cells))


def _normal_dates(texts: list[str]) -> bool:
    """Whether every text reads as a date and already is its YYYY-MM-DD form.

    The `date` methods are mapped directly rather than through
    `normalize_date`, whose Python frames cost more than the parse: about
    2.4 against 3.9 ms for the 3650 distinct days of a benchmark table.
    """
    try:
        return list(map(date.isoformat, map(date.fromisoformat, texts))) == texts
    except ValueError:
        return False


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"REAL must be finite, got {value!r}")
    return value


def _unknown_type(text: str):
    raise ValueError("unknown column type")


class _DateCells(dict):
    """Raw DATE cell text -> its YYYY-MM-DD form, for one load: each
    distinct text is parsed once, and its cells share one str."""

    def __missing__(self, text: str) -> str:
        iso = self[text] = normalize_date(text.strip())
        return iso


# The converter of each column type's CSV cells. Each raises ValueError
# or TypeMismatch where `_parse_cell` refuses the cell; `str` returns a
# TEXT cell itself. DATE cells get a fresh `_DateCells` per load.
_CONVERTERS = {INT: int, REAL: _real, TEXT: str}


def load_table_csv(store: TableStore, name: str, path) -> Table:
    """Load one CSV (RFC 4180) with a two-row header: names, then types.

    Each record is converted by calling its column's converter on each
    cell, so `register_table` finds every column final and keeps the
    rows as they are. A record of the wrong width, or with a cell that
    does not convert, raises the first error of the per-cell parse, with
    its line and column. A file that is not UTF-8 is a `BadConfig`.

    Records are converted one at a time as they are read, as the
    per-cell parse did, so the kept TEXT cells of consecutive rows sit
    together in memory. Converting 32 records per step saved about 0.09 s
    on a 100k-row table, but a step's number strings then stay alive
    until the next step is read, which spreads those cells out: select_scan
    `query_rps` read about 2.5% lower.
    """
    try:
        schema, rows = _read_csv(path)
    except UnicodeDecodeError as exc:
        raise BadConfig(f"{path}: table CSV is not UTF-8 ({exc.reason})") from None
    return store.register_table(name, schema, rows)


def _read_csv(path) -> tuple[tuple[tuple[str, str], ...], list[tuple]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
            types = [t.strip() for t in next(reader)]
        except StopIteration:
            raise BadConfig(f"{path}: missing header rows") from None
        if len(names) != len(types):
            raise BadConfig(f"{path}: header rows disagree on column count")
        schema = tuple(zip([n.strip() for n in names], types))
        converters = [
            _DateCells().__getitem__ if typ == DATE else _CONVERTERS.get(typ, _unknown_type) for typ in types
        ]
        rows: list[tuple] = []
        for line, record in enumerate(reader, start=3):
            if len(record) == len(schema):
                try:
                    rows.append(tuple([convert(cell) for convert, cell in zip(converters, record)]))
                    continue
                except (ValueError, TypeMismatch):
                    pass
            _raise_first_error(path, schema, record, line)
    return schema, rows


def _raise_first_error(path, schema: tuple[tuple[str, str], ...], record: list, line: int) -> NoReturn:
    """Raise the first error the per-cell parse finds in CSV record `line`."""
    if len(record) != len(schema):
        raise TypeMismatch(f"{path} line {line}: expected {len(schema)} cells")
    for cell, (col, typ) in zip(record, schema):
        _parse_cell(cell, typ, f"{path} line {line} column {col}")
    raise AssertionError("unreachable: the record failed but no cell did")


def _parse_cell(text: str, column_type: str, where: str):
    try:
        if column_type == "INT":
            return int(text)
        if column_type == "REAL":
            return check_cell(float(text), "REAL", where)
        if column_type == DATE:
            return normalize_date(text.strip())
        if column_type == "TEXT":
            return text
    except TypeMismatch:
        raise
    except ValueError as exc:
        raise TypeMismatch(f"{where}: {exc}") from None
    raise TypeMismatch(f"{where}: unknown column type {column_type!r}")
