"""Source-of-truth tables, contract-scoped segment extraction, and the
access paths that extraction and the gateway run.

The store is the only component that ever sees full tables. Everything
downstream works on Segments: filtered, projected, point-in-time
snapshots cut to exactly what one grant allows. A predicate compiles to
one tuple of terms (`compile_predicate`), and provisioning and queries
test those same terms, a column at a time (`_mask`). Extraction scans
the source table once. A segment answers each statement with the
ascending positions of its matching rows (`Segment.matches`), from a
scan or from a sorted order of one column that it builds once its scans
have paid for it (`ColumnOrders`). A result is built from those
positions (`Segment.select`), and it is never built as rows: each
picked cell goes from the segment's row tuples straight into its
canonical JSON (`_encode_columns`). Once one projection's results have
sent as many rows as the segment holds, the segment keeps every row's
canonical JSON of that projection's columns, encoded by the same cell
encoders (`WireForm`), and later results of that projection are spliced
from that JSON by the positions. A segment keeps a bounded number of
these forms (`Segment.select`).

Tables come in one form, a CSV file (`load_table_csv`), and each cell
is checked once: its column's converter turns its text into the stored
value as it is read, and each bad cell, DATE included, is a
`TypeMismatch` naming the path, line and column.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice, repeat
from json.encoder import encode_basestring
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .canonical import EncodedRows
from .contracts import Grant
from .errors import BadConfig, DuplicateTable, TypeMismatch, UnknownColumn, UnknownSource
from .model import (
    COLUMN_TYPES,
    DATE,
    INT,
    REAL,
    TEXT,
    Predicate,
    SchemaCatalog,
    date_to_days,
    days_to_date,
    normalize_date,
)


@dataclass
class Table:
    name: str  # qualified "namespace.table"
    schema: tuple[tuple[str, str], ...]  # (column, type) in declared order
    rows: list[tuple]


class WireForm:
    """One projection of a segment's rows as canonical JSON, built at most
    once.

    `buf` holds every row's encoding of the projection's columns, joined
    by commas, encoded by the cell encoders of every other result
    (`_row_cells`). `starts` holds the n+1 row starts, and row i is
    `buf[starts[i]:starts[i+1]-1]`: the last start is one past the
    buffer's end, as if a comma followed the last row too. The starts
    are an `array('I')`, 4 B per row, while the buffer is under 4 GiB,
    else an `array('q')`. So a form costs about its encoded size plus 4 B
    per row. On the bench's 20k-row segments, building one took 1.2-1.3
    times as long as encoding every row once in a reply for five or six
    columns (23-25 ms), and 2-3 times for one or two (7-10 ms), where
    each row's own bytes object is most of the work. It is built only
    once the projection's results have sent as many rows as the segment
    holds (`sent`): the ski-rental rule, which buys once the rent already
    paid equals the price (Karlin et al., "Competitive Snoopy Caching",
    1988). A projection queried too little to repay the build never
    pays for it.
    """

    __slots__ = ("sent", "buf", "starts")

    def __init__(self):
        self.sent = 0
        self.buf: bytes | None = None

    def count_sent(self, rows: tuple[tuple, ...], picks: Sequence[int], column_types: Sequence[str], sent: int) -> None:
        """Add `sent` rows of `picks` results sent from `rows`; build the
        wire form once the total reaches the number of rows."""
        self.sent += sent
        if self.sent < len(rows):
            return
        out, lengths = io.BytesIO(), array("q")
        for first in range(0, len(rows), _WIRE_STEP):
            cells = _row_cells(rows[first : first + _WIRE_STEP], picks, column_types)
            parts = [f"[{row}]".encode("utf-8") for row in cells]
            if first:
                out.write(b",")
            lengths.extend(map(len, parts))
            out.write(b",".join(parts))
        self.buf = out.getvalue()
        # Row i starts after rows 0..i-1 and the comma after each of them.
        code = "I" if len(self.buf) + 1 < _STARTS_I_LIMIT else "q"
        self.starts = array(code, accumulate(map(operator.add, lengths, repeat(1)), initial=0))

    def splice(self, hits: Sequence[int]) -> EncodedRows:
        """The encodings of the rows at positions `hits` (ascending): one
        slice of the buffer when the positions are contiguous, else the
        rows' slices joined. Either is bytes, which refer to nothing, so
        the result keeps no row, cell or segment alive (a result of every
        row may be the buffer itself)."""
        if not hits:
            return EncodedRows(b"", 0)
        starts, first, last = self.starts, hits[0], hits[-1]
        if last - first + 1 == len(hits):
            return EncodedRows(self.buf[starts[first] : starts[last + 1] - 1], len(hits))
        # Each row's slice runs to the next row's start, so it keeps the
        # comma after it; only the buffer's last row has none to drop.
        get = operator.itemgetter(*hits)
        joined = b"".join(map(self.buf.__getitem__, map(slice, get(starts), get(memoryview(starts)[1:]))))
        return EncodedRows(joined if joined.endswith(b"]") else joined[:-1], len(hits))


class ColumnOrders:
    """A segment's access paths: per column, the rows its scans have
    examined so far, or a built order of its rows.

    A built order holds the row positions sorted by one column's value,
    ties in row order: an `array('i')`, 4 B per row, or `range(n)` when
    the rows already are in that order. Each `=`, `<`, `<=`, `>` and
    `>=` term on that column narrows one window of the order by `bisect`,
    so a statement learns the exact count `w` of rows that meet them
    without reading any. `!=` terms, and numbers compared with a DATE
    cell's day count, never narrow; they and the terms on other columns
    are tested on the gathered rows only.

    The path is chosen per statement (after Selinger et al., "Access
    Path Selection in a Relational Database Management System", SIGMOD
    1979). The scan costs about `n` rows, or about `stop * n / w` when a
    LIMIT cuts it short, so `LIMIT 10` at 50% still scans about 20 rows.
    The order costs about `w`, to sort the window back into row order,
    and nothing when the window already is in row order (a `range`
    order, or a window of every row). The cheaper one runs. Either way
    the positions come out ascending.

    Building an order costs about two full scans: on a 20k-row segment,
    sorting by one INT, REAL, DATE or TEXT column took 5-7 ms (1.3 ms to
    find a column already in row order), and a scan of a two-term window,
    the common shape, 3.1-4.1 ms; a one-term scan took 1.1-1.9 ms. So a
    column's order is built only once scans whose predicate has an
    orderable term on that column have examined `_BUILD_SCANS` times the
    segment's rows: the ski-rental rule of `WireForm` again. A scan that
    a LIMIT stops examines only up to its last hit, and an index lookup,
    a denied statement or a statement with no orderable term counts
    nothing.
    """

    __slots__ = ("_by_column",)

    def __init__(self):
        # column index -> rows examined so far (int), or the built order.
        self._by_column: dict[int, int | Sequence[int]] = {}

    def built(self, column: int) -> bool:
        return not isinstance(self._by_column.get(column, 0), int)

    def positions(self, rows: Sequence[tuple], terms: Terms, stop: int | None = None) -> Sequence[int]:
        """The positions of the rows that meet `terms`, ascending,
        stopping after `stop` of them."""
        if not terms:
            return scan_positions(rows, terms, stop)
        n = len(rows)
        columns = {i for i, op, _ in terms if op in _NARROW}
        best = None
        for i in columns:
            if self.built(i):
                lo, hi = _window(self._by_column[i], rows, i, terms)
                if best is None or hi - lo < best[2] - best[1]:
                    best = (i, lo, hi)
        if best is not None:
            i, lo, hi = best
            order, w = self._by_column[i], hi - lo
            # The order when its cost is below min(n, stop * n / w); a
            # window already in row order costs nothing.
            if w == n or isinstance(order, range) or stop is None or w * w < stop * n:
                # A window of every row holds every position, in row order.
                window = range(n) if w == n else order[lo:hi]
                rest = [t for t in terms if t[0] != i or t[1] not in _NARROW]
                return _gather(window, rows, rest, stop)
        hits = scan_positions(rows, terms, stop)
        examined = n
        if stop is not None and len(hits) == stop:
            # The LIMIT stopped the scan at its last hit.
            examined = hits[-1] + 1 if hits else 0
        for i in columns:
            if not self.built(i):
                self._count(rows, i, examined)
        return hits

    def _count(self, rows: Sequence[tuple], column: int, examined: int) -> None:
        seen = self._by_column.get(column, 0) + examined
        if seen < _BUILD_SCANS * len(rows):
            self._by_column[column] = seen
            return
        cells = [row[column] for row in rows]
        if all(map(operator.le, cells, islice(cells, 1, None))):
            self._by_column[column] = range(len(rows))
        else:
            self._by_column[column] = array("i", sorted(range(len(rows)), key=cells.__getitem__))


# Scans of one column, in rows examined per row held, that pay for
# building its order; see `ColumnOrders`.
_BUILD_SCANS = 2

# How each operator an order can answer narrows a window [lo, hi) of
# that order: the bisect that finds the new lo, and the one that finds
# the new hi.
_NARROW = {
    operator.eq: (bisect_left, bisect_right),
    operator.lt: (None, bisect_left),
    operator.le: (None, bisect_right),
    operator.gt: (bisect_right, None),
    operator.ge: (bisect_left, None),
}


def _window(order: Sequence[int], rows: Sequence[tuple], column: int, terms: Sequence[Term]) -> tuple[int, int]:
    """The window [lo, hi) of `order`, the positions sorted by `column`,
    whose rows meet every term on that column that an order answers."""

    def key(pos: int):
        return rows[pos][column]

    lo, hi = 0, len(order)
    for i, op, value in terms:
        if i == column and op in _NARROW:
            low, high = _NARROW[op]
            if low is not None:
                lo = low(order, value, lo, hi, key=key)
            if high is not None:
                hi = high(order, value, lo, hi, key=key)
    return lo, hi


def _gather(window: Sequence[int], rows: Sequence[tuple], rest: list[Term], stop: int | None) -> Sequence[int]:
    """The positions in `window` whose rows meet the `rest` terms,
    ascending, stopping after `stop` of them.

    A LIMIT that keeps under a tenth of the window takes the smallest
    positions by heap: on 20k rows, 11 of 2000 took 0.1 ms that way
    against 0.3 ms to sort, but 1001 of 10000 took 2.8 ms against 2.1.
    """
    if not isinstance(window, range):
        if not rest and stop is not None and stop * 10 < len(window):
            return heapq.nsmallest(stop, window)
        window = sorted(window)
    if not rest:
        return window if stop is None else window[:stop]
    return list(islice(compress(window, _mask(_rows_at(rows, window), rest)), stop))


def _rows_at(rows: Sequence[tuple], hits: Sequence[int]) -> tuple[tuple, ...]:
    """The rows at positions `hits`, in that order."""
    if isinstance(hits, range):
        return rows[hits.start : hits.stop]
    return tuple(map(rows.__getitem__, hits))


@dataclass(frozen=True)
class Segment:
    """A snapshot slice of one table, scoped by one grant.

    The segment is its own tuple of immutable row tuples and holds no
    store handle, so no later change to the source table can show up
    in it; it carries everything the gateway needs after provisioning.
    Its `wire` forms are caches of those rows' encoding, one per
    projection, and its `orders` hold row positions only; neither is a
    second copy of the data the gateway could read.
    """

    origin: str  # qualified source table name
    columns: tuple[str, ...]
    column_types: tuple[str, ...]
    rows: tuple[tuple, ...]
    extracted_at: int
    # projection's picks -> its wire form, built or still counting.
    wire: dict[tuple[int, ...], WireForm] = field(default_factory=dict, init=False, repr=False, compare=False)
    orders: ColumnOrders = field(default_factory=ColumnOrders, init=False, repr=False, compare=False)

    def matches(self, terms: Terms, cap: int | None) -> tuple[Sequence[int], bool]:
        """The positions of the rows that meet `terms`, ascending, cut to
        `cap`; and whether the cut dropped any."""
        # One match past the cap is enough to know the result was cut.
        hits = self.orders.positions(self.rows, terms, None if cap is None else cap + 1)
        if cap is not None and len(hits) > cap:
            return hits[:cap], True
        return hits, False

    def select(self, picks: list[int], terms: Terms, cap: int | None) -> tuple[EncodedRows, bool]:
        """The `picks` columns of the rows that meet `terms`, in order,
        cut to `cap` rows; and whether the cut dropped any.

        Each projection counts the rows its results send toward its own
        wire form, and once that is built, its results are spliced from
        it. Until then, and for a projection with no form, the rows are
        encoded cell by cell (`_encode_columns`). Both give the same
        bytes.

        A segment holds at most `len(columns) + 1` forms, built or
        counting (`_wire_form`). So its forms cost at most `len(columns)
        + 1` times (the full-width form's encoded size plus 4 B per row),
        since a projection without repeats encodes each row in no more
        bytes than every column does.
        """
        hits, truncated = self.matches(terms, cap)
        form = self._wire_form(picks)
        if form is not None and form.buf is None:
            form.count_sent(self.rows, picks, self.column_types, len(hits))
        if form is not None and form.buf is not None:
            return form.splice(hits), truncated
        return _encode_columns(_rows_at(self.rows, hits), picks, self.column_types), truncated

    def _wire_form(self, picks: list[int]) -> WireForm | None:
        """The wire form of projection `picks`, made on its first use.

        A projection that repeats a column gets none. The full-width one
        (every column in order) always gets one, and the others share
        `len(columns)` more, first come first served, so narrower
        projections seen first never cost a full-width result its form.
        """
        key = tuple(picks)
        form = self.wire.get(key)
        if form is None and len(set(key)) == len(key):
            full = tuple(range(len(self.columns)))
            if key == full or len(self.wire) - (full in self.wire) < len(self.columns):
                form = self.wire[key] = WireForm()
        return form


# The canonical JSON of one cell, per column type. Cells are checked at
# load, so each column holds one Python type, and never a value these
# would encode differently from `canonical_json`: no bool, no NaN or
# infinity, no INT too long for `int.__repr__`, no lone surrogate.
_CELL_JSON = {INT: int.__repr__, REAL: float.__repr__, TEXT: encode_basestring, DATE: encode_basestring}
# Rows a `WireForm` build holds encoded apart from its buffer at once.
_WIRE_STEP = 1024
# The least row start an `array('I')` cannot hold: 4 GiB.
_STARTS_I_LIMIT = 1 << 8 * array("I").itemsize


def _row_cells(rows: Sequence[tuple], picks: Sequence[int], column_types: Sequence[str]) -> Iterator[str]:
    """Each of `rows` as the canonical JSON of its `picks` cells, in that
    order and repeats kept, joined by commas, without the brackets.

    Each picked column is one C-level `map` of its type's encoder down
    the rows, and `zip` joins the columns' cells row by row into one
    reused tuple. On 5000 of the bench's 20k rows, projected to one to
    four columns, this took 0.6-3.3 ms on a 2-vCPU VM, against 1.6-3.9
    ms to build the projected row tuples and encode them; building them
    also allocates one tracked tuple per row for the collector.
    """
    columns = [map(_CELL_JSON[column_types[i]], map(operator.itemgetter(i), rows)) for i in picks]
    if not columns:
        return repeat("", len(rows))
    return columns[0] if len(columns) == 1 else map(",".join, zip(*columns))


def _encode_columns(rows: Sequence[tuple], picks: list[int], column_types: Sequence[str]) -> EncodedRows:
    """The `picks` columns of `rows` as `EncodedRows`; no row is built."""
    if not rows:
        return EncodedRows(b"", 0)
    return EncodedRows(("[" + "],[".join(_row_cells(rows, picks, column_types)) + "]").encode("utf-8"), len(rows))


# One compiled conjunct: (column index, operator function, literal).
Term = tuple[int, Callable[[object, object], bool], object]
# A compiled predicate: its terms, all of which a row must meet; `()`
# when every row matches, and None when no row can.
Terms = tuple[Term, ...] | None

# Each query operator as a function of (cell, literal).
_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _on_day_count(op: Callable) -> Callable:
    """`op` applied to a DATE cell's day count instead of its text."""
    return lambda cell, number: op(date_to_days(cell), number)


def compile_predicate(schema: tuple[tuple[str, str], ...], p: Predicate | None) -> Terms:
    """Compile `p` against rows laid out by `schema` into its terms: `()`
    when every row matches, None when no row can.

    Column indexes and operators are resolved here, once, into one
    (index, operator function, literal) term per conjunct. Provisioning
    and queries both test these terms, a column at a time (`_mask`).
    Cells are type-checked at load, so the column type fixes each cell's
    value family: a comparison across families (TEXT against a number)
    or on a column the schema lacks can never hold, and the whole
    predicate becomes None, which every scan answers without reading a
    row.

    DATE cells are normalized ISO text, which sorts in day order, so a
    DATE literal on a DATE column becomes that text and compares with
    the cell as it is. An INT or REAL literal on a DATE column compares
    with each cell's day count, which is parsed per row.
    """
    if p is None:
        return ()
    index = {col: (i, typ) for i, (col, typ) in enumerate(schema)}
    terms = []
    for comp in p.conjuncts:
        if comp.column not in index:
            return None
        i, typ = index[comp.column]
        kind, op, value = comp.literal.kind, _OPS[comp.op], comp.literal.value
        if (typ == TEXT) != (kind == TEXT):
            return None
        if typ == DATE:
            if kind == DATE:
                value = days_to_date(value)
            else:
                op = _on_day_count(op)
        terms.append((i, op, value))
    return tuple(terms)


def eval_predicate(row: tuple, schema: tuple[tuple[str, str], ...], p: Predicate | None) -> bool:
    """Does `row` (laid out by `schema`) satisfy every conjunct of `p`?"""
    return bool(scan((row,), compile_predicate(schema, p)))


def scan(rows: Sequence[tuple], terms: Terms) -> Sequence[tuple]:
    """The rows that meet `terms`, in order: `rows` itself when every
    row matches.

    Each term is tested only on the rows the terms before it kept. On a
    2k-row table, a three-term churn grant took 0.16 ms that way against
    0.31 ms with every term on every row (`_mask` of all the terms at
    once), which a LIMIT can stop early; extraction has no LIMIT.
    """
    if terms is None:
        return []
    for term in terms:
        rows = list(compress(rows, _mask(rows, (term,))))
    return rows


def scan_positions(rows: Sequence[tuple], terms: Terms, limit: int | None = None) -> Sequence[int]:
    """The positions of the rows that meet `terms`, ascending, stopping
    after `limit` of them; a range when every row matches."""
    if terms is None:
        return []
    if not terms:
        return range(len(rows) if limit is None else min(len(rows), limit))
    hits = compress(range(len(rows)), _mask(rows, terms))
    return list(hits if limit is None else islice(hits, limit))


def _mask(rows: Sequence[tuple], terms: Sequence[Term]) -> Iterator[bool]:
    """Whether each of `rows` meets every one of `terms` (at least one),
    lazily, in row order.

    Each term is one C-level `map` down its column, and the terms' maps
    are joined by `and_`, so no row costs a Python call: a two-term
    window's scan of 20k rows took 2.7 ms, against 4.8 ms with a per-row
    matcher closure. Every term is tested on every row, so a LIMIT can
    stop the scan at any row. `rows` is read once per term.
    """
    oks = None
    for i, op, value in terms:
        term = map(op, map(operator.itemgetter(i), rows), repeat(value))
        oks = term if oks is None else map(operator.and_, oks, term)
    return oks


def project(picks: list[int], width: int) -> Callable[[Iterable[tuple]], tuple[tuple, ...]]:
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
    """Registry of immutable-schema tables, each loaded by `load_table_csv`."""

    def __init__(self):
        self._tables: dict[str, Table] = {}

    def _get(self, name: str) -> Table:
        if name not in self._tables:
            raise UnknownSource(f"unknown table {name}")
        return self._tables[name]

    def catalog(self) -> SchemaCatalog:
        return SchemaCatalog({name: t.schema for name, t in self._tables.items()})

    def extract_segment(self, name: str, g: Grant, now: int) -> Segment:
        """Filter by the grant predicate, project to the granted columns.

        Row order follows the source table. A column the table lacks,
        granted or named by the predicate, is `UnknownColumn`: a grant
        validated at submit can meet a table reloaded from a changed CSV.
        """
        table = self._get(name)
        schema = table.schema
        if g.columns is None:
            wanted = [col for col, _ in schema]
        else:
            wanted = list(g.columns)
        index = {col: i for i, (col, _) in enumerate(schema)}
        named = g.row_predicate.columns() if g.row_predicate is not None else ()
        for col in (*wanted, *named):
            if col not in index:
                raise UnknownColumn(f"grant names column {col!r}, which {name} lacks")
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
    UTF-8 is a `BadConfig`. Then the table itself is checked: a name
    already loaded is a `DuplicateTable`, and a name with no namespace,
    an unknown column type or a repeated column name is refused.

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
    if name in store._tables:
        raise DuplicateTable(f"table {name} already registered")
    if "." not in name:
        raise BadConfig(f"table name must be qualified namespace.table, got {name!r}")
    for col, typ in schema:
        if typ not in COLUMN_TYPES:
            raise TypeMismatch(f"{name}.{col}: unknown column type {typ!r}")
    names = [col for col, _ in schema]
    if len(set(names)) != len(names):
        raise BadConfig(f"table {name}: duplicate column names")
    table = store._tables[name] = Table(name, schema, rows)
    return table


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
