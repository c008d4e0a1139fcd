"""Source-of-truth tables, contract-scoped segment extraction, and the
one scan path that both extraction and the gateway run.

The store is the only component that ever sees full tables. Everything
downstream works on Segments: filtered, projected, point-in-time
snapshots cut to exactly what one grant allows. A segment that has sent
its rows often enough in full-width results also keeps their canonical
JSON (`WireForm`); its full-width scans then yield row positions
(`scan_positions`, the same matcher and stop) to splice that JSON by.

Cells are checked once, by one check per input form. A table CSV's text
cells go through its column converters as they are read, and each bad
cell, DATE included, is a `TypeMismatch` naming the path, line and
column. Rows of Python values given to `register_table` go through
`model.check_cell`, one cell at a time.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from itertools import compress, islice
from typing import Callable, Iterable, NoReturn, Sequence

from .canonical import encode_each
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


class EncodedRows(tuple):
    """Result rows that also carry `wire`: their canonical JSON, each
    row's encoding joined by commas, without the enclosing brackets.

    They are the row tuples themselves, so they compare and encode like
    any tuple of rows; a reply writer may splice `wire` in instead.
    """

    def __new__(cls, rows: Iterable[tuple], wire):
        self = super().__new__(cls, rows)
        self.wire = wire
        return self


class WireForm:
    """A segment's rows as canonical JSON, built at most once.

    `buf` holds every row's encoding, joined by commas, and row i is
    `buf[starts[i]:ends[i]]`. It costs about the encoded size plus 16 B
    per row, and building it costs about as much as encoding every row
    once in a reply (1.2-1.4 times, measured). So it is built only once
    the segment's full-width results have sent as many rows as the
    segment holds (`sent`): the ski-rental rule, which buys once the
    rent already paid equals the price. A segment queried too little to
    repay the build never pays for it.
    """

    __slots__ = ("sent", "buf", "starts", "ends")

    def __init__(self):
        self.sent = 0
        self.buf: bytes | None = None

    def count_sent(self, rows: tuple[tuple, ...], sent: int) -> None:
        """Add `sent` rows of full-width results sent from `rows`; build
        the wire form once the total reaches the number of rows."""
        self.sent += sent
        if self.sent >= len(rows):
            self.buf, self.starts, self.ends = encode_each(rows)

    def splice(self, rows: tuple[tuple, ...], hits: Sequence[int]) -> EncodedRows:
        """The rows at positions `hits` (ascending), with their encodings:
        one slice of the buffer when the positions are contiguous, else
        the rows' slices joined by commas."""
        if not hits:
            return EncodedRows((), b"")
        first, last = hits[0], hits[-1]
        if last - first + 1 == len(hits):
            wire = memoryview(self.buf)[self.starts[first] : self.ends[last]]
            return EncodedRows(rows[first : last + 1], wire)
        spans = map(slice, map(self.starts.__getitem__, hits), map(self.ends.__getitem__, hits))
        return EncodedRows(map(rows.__getitem__, hits), b",".join(map(self.buf.__getitem__, spans)))


@dataclass(frozen=True)
class Segment:
    """A snapshot slice of one table, scoped by one grant.

    The segment is its own tuple of immutable row tuples and holds no
    store handle, so no later change to the source table can show up
    in it; it carries everything the gateway needs after provisioning.
    Its `wire` form is a cache of those rows' encoding, never a second
    copy of the data the gateway could read.
    """

    origin: str  # qualified source table name
    columns: tuple[str, ...]
    column_types: tuple[str, ...]
    rows: tuple[tuple, ...]
    extracted_at: int
    wire: WireForm = field(default_factory=WireForm, init=False, repr=False, compare=False)

    def select_all(self, match: Matcher | None, cap: int | None) -> tuple[tuple[tuple, ...], bool]:
        """Every column of the rows that `match` accepts, in order, cut to
        `cap` rows; and whether the cut dropped any.

        Once the wire form exists, the scan yields positions and the
        rows come with their encodings spliced from it; until then the
        scan is `scan`'s, and the rows sent count toward the build.
        """
        # One match past the cap is enough to know the result was cut.
        stop = None if cap is None else cap + 1
        if self.wire.buf is None:
            rows = scan(self.rows, match, stop)
            truncated = cap is not None and len(rows) > cap
            if truncated:
                del rows[cap:]
            self.wire.count_sent(self.rows, len(rows))
            return tuple(rows), truncated
        hits = scan_positions(self.rows, match, stop)
        truncated = cap is not None and len(hits) > cap
        return self.wire.splice(self.rows, hits[:cap] if truncated else hits), truncated


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


def scan_positions(rows: Sequence[tuple], match: Matcher | None, limit: int | None = None) -> Sequence[int]:
    """The positions of the rows that `match` accepts, ascending, stopping
    after `limit` of them; a range when every row matches."""
    if match is _match_nothing:
        return []
    if match is None:
        return range(len(rows) if limit is None else min(len(rows), limit))
    hits = compress(range(len(rows)), map(match, rows))
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
        self, name: str, schema: tuple[tuple[str, str], ...], rows: list
    ) -> Table:
        """Register `name` with rows of Python values, each cell checked
        and normalized by `check_cell`."""
        self._check_new(name, schema)
        return self._insert(name, schema, _checked_rows(name, schema, rows))

    def _check_new(self, name: str, schema: tuple[tuple[str, str], ...]) -> None:
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

    def _insert(self, name: str, schema: tuple[tuple[str, str], ...], rows: list[tuple]) -> Table:
        """Add a table that passed `_check_new`, whose rows hold only final cells."""
        table = self._tables[name] = Table(name, tuple(schema), rows)
        return table

    def _get(self, name: str) -> Table:
        if name not in self._tables:
            raise UnknownSource(f"unknown table {name}")
        return self._tables[name]

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
    as `check_cell` normalizes it; the first bad row or cell, in
    row-major order, raises."""
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


def _real(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"REAL must be finite, got {value!r}")
    return value


class _DateCells(dict):
    """Raw DATE cell text -> its YYYY-MM-DD form, for one load: each
    distinct text is parsed once, and its cells share one str."""

    def __missing__(self, text: str) -> str:
        iso = self[text] = normalize_date(text.strip())
        return iso


# The converter of each column type's CSV cells; `str` returns a TEXT
# cell itself. DATE cells get a fresh `_DateCells` per load.
_CONVERTERS = {INT: int, REAL: _real, TEXT: str}


def _converter(column_type: str) -> Callable[[str], object]:
    """The function that turns one CSV cell of `column_type` into its
    stored value. It raises ValueError or TypeMismatch on a cell it
    refuses, and on every cell of an unknown type."""
    if column_type == DATE:
        return _DateCells().__getitem__
    if column_type in _CONVERTERS:
        return _CONVERTERS[column_type]

    def refuse(text: str) -> NoReturn:
        raise ValueError(f"unknown column type {column_type!r}")

    return refuse


def load_table_csv(store: TableStore, name: str, path) -> Table:
    """Load one CSV (RFC 4180) with a two-row header: names, then types.

    Each record is converted by calling its column's converter on each
    cell, and the store takes the converted rows as they are, with no
    second check. A record of the wrong width is a `TypeMismatch` naming
    the path and line; a cell that does not convert, DATE included, is a
    `TypeMismatch` naming the path, line and column. A file that is not
    UTF-8 is a `BadConfig`.

    Records are converted one at a time as they are read, so the kept
    TEXT cells of consecutive rows sit together in memory. Converting 32
    records per step saved about 0.09 s on a 100k-row table, but a step's
    number strings then stay alive until the next step is read, which
    spreads those cells out: select_scan `query_rps` read about 2.5% lower.
    """
    try:
        schema, rows = _read_csv(path)
    except UnicodeDecodeError as exc:
        raise BadConfig(f"{path}: table CSV is not UTF-8 ({exc.reason})") from None
    store._check_new(name, schema)
    return store._insert(name, schema, rows)


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
        converters = [_converter(typ) for typ in types]
        rows: list[tuple] = []
        for line, record in enumerate(reader, start=3):
            if len(record) != len(schema):
                raise TypeMismatch(f"{path} line {line}: expected {len(schema)} cells")
            try:
                rows.append(tuple([convert(cell) for convert, cell in zip(converters, record)]))
            except (ValueError, TypeMismatch):
                _raise_first_error(f"{path} line {line}", schema, converters, record)
    return schema, rows


def _raise_first_error(where: str, schema, converters, record: list) -> NoReturn:
    """Raise the error of the first cell of `record` that does not convert,
    as a `TypeMismatch` naming `where` and the cell's column."""
    for (col, _), convert, cell in zip(schema, converters, record):
        try:
            convert(cell)
        except (ValueError, TypeMismatch) as exc:
            raise TypeMismatch(f"{where} column {col}: {exc}") from None
    raise AssertionError("unreachable: the record failed but no cell did")
