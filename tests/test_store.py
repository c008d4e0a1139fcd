"""Table store: CSV loading and segment extraction vs oracle."""

from __future__ import annotations

import csv
import operator
import re
import tempfile
from array import array
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from enclave_broker import store
from enclave_broker.broker import BrokerConfig, BrokerCore
from enclave_broker.canonical import canonical_bytes
from enclave_broker.contracts import Grant
from enclave_broker.errors import BadConfig, DuplicateTable, TypeMismatch, UnknownColumn, UnknownSource
from enclave_broker.model import COLUMN_TYPES, DATE, INT, REAL, TEXT, Comparison, Literal, Predicate, date_to_days, days_to_date
from enclave_broker.store import (
    ColumnOrders,
    Segment,
    TableStore,
    compile_predicate,
    eval_predicate,
    WireForm,
    load_table_csv,
    scan,
    scan_positions,
)

from conftest import C1_SEGMENT_ROWS, ORDERS_CSV, ORDERS_ROWS, ORDERS_SCHEMA, append_row, csv_table, orders_store, write_csv
from reference_loaders import ReferenceStore
from reference_loaders import load_table_csv as reference_load_table_csv


def test_register_rejects_duplicates_and_bad_shapes(tmp_path):
    store = orders_store(tmp_path)

    def load(name, schema, rows):
        load_table_csv(store, name, write_csv(tmp_path, name, schema, rows))

    with pytest.raises(DuplicateTable):
        load("warehouse.orders", ORDERS_SCHEMA, [])
    with pytest.raises(BadConfig):
        load("unqualified", (("a", "INT"),), [])
    with pytest.raises(TypeMismatch):
        load("ns.bad", (("a", "BLOB"),), [])
    with pytest.raises(BadConfig):
        load("ns.dup", (("a", "INT"), ("a", "INT")), [])
    with pytest.raises(TypeMismatch):
        load("ns.short", (("a", "INT"), ("b", "TEXT")), [(1,)])
    with pytest.raises(TypeMismatch):
        load("ns.badcell", (("a", "INT"),), [("one",)])
    # A refused table is not registered.
    assert not any(store.catalog().has_table(n) for n in ("unqualified", "ns.bad", "ns.dup", "ns.short", "ns.badcell"))


def test_bool_is_not_an_int_cell(tmp_path):
    with pytest.raises(TypeMismatch, match="column a: invalid literal"):
        csv_table(tmp_path, "ns.t", (("a", "INT"),), [(True,)])


def test_eval_predicate_hand_cases():
    p = Predicate((Comparison("created_at", ">=", Literal.date("2025-01-01")),))
    assert eval_predicate(ORDERS_ROWS[1], ORDERS_SCHEMA, p)
    assert not eval_predicate(ORDERS_ROWS[0], ORDERS_SCHEMA, p)
    both = Predicate(
        (
            Comparison("customer", "=", Literal.text("acme")),
            Comparison("amount", ">", Literal.integer(80)),
        )
    )
    assert eval_predicate(ORDERS_ROWS[0], ORDERS_SCHEMA, both)
    assert not eval_predicate(ORDERS_ROWS[2], ORDERS_SCHEMA, both)
    assert eval_predicate(ORDERS_ROWS[0], ORDERS_SCHEMA, None)


def test_cross_family_comparison_is_false_not_error():
    p = Predicate((Comparison("customer", ">", Literal.integer(5)),))
    assert not eval_predicate(ORDERS_ROWS[0], ORDERS_SCHEMA, p)
    q = Predicate((Comparison("amount", "=", Literal.text("100")),))
    assert not eval_predicate(ORDERS_ROWS[0], ORDERS_SCHEMA, q)


def test_extract_fixture_segment(tmp_path):
    store = orders_store(tmp_path)
    g = Grant(
        "warehouse.orders",
        ("order_id", "amount", "created_at"),
        Predicate((Comparison("created_at", ">=", Literal.date("2025-01-01")),)),
    )
    seg = store.extract_segment("warehouse.orders", g, now=5)
    assert seg.columns == ("order_id", "amount", "created_at")
    assert seg.column_types == ("INT", "INT", "DATE")
    assert seg.rows == C1_SEGMENT_ROWS
    assert seg.origin == "warehouse.orders"
    assert seg.extracted_at == 5


def test_extract_all_columns_keeps_schema_order(tmp_path):
    store = orders_store(tmp_path)
    seg = store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 0)
    assert seg.columns == ("order_id", "customer", "amount", "created_at")
    assert seg.rows == tuple(tuple(r) for r in ORDERS_ROWS)


def test_extract_unknown_table(tmp_path):
    with pytest.raises(UnknownSource):
        orders_store(tmp_path).extract_segment("warehouse.nothing", Grant("warehouse.nothing", None), 0)


def test_snapshot_isolation(tmp_path):
    store = orders_store(tmp_path)
    seg = store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 0)
    before = seg.rows
    append_row(store, "warehouse.orders", (9, "initech", 1, "2025-03-01"))
    assert seg.rows == before
    fresh = store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 1)
    assert len(fresh.rows) == len(before) + 1


# ---- CSV loading ----


def test_load_csv(tmp_path):
    path = tmp_path / "orders.csv"
    path.write_text(ORDERS_CSV, encoding="utf-8")
    store = TableStore()
    table = load_table_csv(store, "warehouse.orders", path)
    assert table.schema == ORDERS_SCHEMA
    assert table.rows == [tuple(r) for r in ORDERS_ROWS]


def test_load_csv_rfc4180_quoting(tmp_path):
    path = tmp_path / "tricky.csv"
    path.write_text(
        'name,note\nTEXT,TEXT\n"comma, inc","say ""hi"""\n"two\nlines",plain\n',
        encoding="utf-8",
    )
    store = TableStore()
    table = load_table_csv(store, "ns.tricky", path)
    assert table.rows == [("comma, inc", 'say "hi"'), ("two\nlines", "plain")]


def test_load_csv_bad_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("only_names\n", encoding="utf-8")
    with pytest.raises(BadConfig):
        load_table_csv(TableStore(), "ns.bad", path)
    path.write_text("a,b\nINT\n", encoding="utf-8")
    with pytest.raises(BadConfig):
        load_table_csv(TableStore(), "ns.bad", path)


def test_load_csv_not_utf8_is_bad_config(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\nINT,TEXT\n1,\xff\n")
    with pytest.raises(BadConfig, match=re.escape(f"{path}: table CSV is not UTF-8")):
        load_table_csv(TableStore(), "ns.bad", path)
    # The daemon loads its tables through the same loader at start.
    with pytest.raises(BadConfig, match="not UTF-8"):
        BrokerCore(BrokerConfig(data_dir=str(tmp_path / "data"), tables={"ns.bad": str(path)}))


def test_load_csv_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a\nINT\nnotanumber\n", encoding="utf-8")
    with pytest.raises(TypeMismatch):
        load_table_csv(TableStore(), "ns.bad", path)
    path.write_text("a\nDATE\n2025-99-99\n", encoding="utf-8")
    with pytest.raises(TypeMismatch):
        load_table_csv(TableStore(), "ns.bad2", path)


# ---- the loaders equal the per-cell reference ----

# Cell texts per declared type: good ones, padded ones, and ones that
# int(), float() or date.fromisoformat() refuse or take in odd forms.
_CSV_CELLS = {
    "INT": st.sampled_from(("0", "12", "-3", " 7 ", "+4", "1_000", "\u0663", "1.5", "x", "", "0x10", "9" * 4301)),
    "REAL": st.sampled_from(("1.5", "2", " 3.25 ", "-0.0", "nan", "inf", "-inf", "1e400", "1_000.5", "abc", "", "\u0661.\u0665")),
    "DATE": st.sampled_from(("2024-01-31", " 2024-02-29 ", "2023-02-29", "20240131", "2024-W01-1", "2024-1-5", "", "x")),
    "TEXT": st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=4),
}
_CSV_TYPES = st.sampled_from(("INT", "REAL", "DATE", "TEXT", "INT", "REAL", "DATE", "TEXT", " DATE ", "BLOB"))


@st.composite
def _csv_tables(draw):
    types = draw(st.lists(_CSV_TYPES, min_size=1, max_size=4))
    names = draw(st.lists(st.sampled_from(("a", "b", "c", "d", " e ")), min_size=len(types), max_size=len(types)))
    records = []
    for _ in range(draw(st.integers(0, 9))):
        record = [draw(_CSV_CELLS.get(t.strip(), st.just("1"))) for t in types]
        width = draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
        records.append(record[:width] if width < 0 else record + ["9"] * width)
    return names, types, records


def _loaded(load, store, path):
    try:
        table = load(store, "ns.t", path)
    except Exception as exc:  # the two loaders must fail alike, whatever the error
        return type(exc).__name__, str(exc)
    return table.schema, [(type(row), *map(repr, row)) for row in table.rows]


@given(_csv_tables())
@example((["d", "r"], [" DATE ", "REAL"], [[" 2024-02-29 ", " 3.25 "], ["2024-01-31", "2"]]))
@example((["a", "d"], ["INT", "DATE"], [["1", "2024-01-31"], ["2", "2023-02-29"]]))
def test_csv_load_matches_per_cell_reference(table):
    names, types, records = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([names, types, *records])
        expected = _loaded(reference_load_table_csv, ReferenceStore(), path)
        assert _loaded(load_table_csv, TableStore(), path) == expected


def test_csv_error_names_its_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,d\nINT,DATE\n" + "1,2024-01-01\n" * 5 + "x,2024-01-01\n", encoding="utf-8")
    with pytest.raises(TypeMismatch, match=r"line 8 column a: invalid literal"):
        load_table_csv(TableStore(), "ns.t", path)
    path.write_text("a,d\nINT,DATE\n1,2024-01-01\n2,2024-02-30\n", encoding="utf-8")
    with pytest.raises(TypeMismatch, match=re.escape(f"{path} line 4 column d: bad DATE literal '2024-02-30'")):
        load_table_csv(TableStore(), "ns.t", path)


# ---- extraction and the compiled scan equal the brute-force oracle ----

_COLS = ("w", "x", "y", "z", "r")
_TYPES = ("INT", "TEXT", "INT", "DATE", "REAL")
_SCHEMA = tuple(zip(_COLS, _TYPES))
_OPS = ("=", "!=", "<", "<=", ">", ">=")

_rows = st.lists(
    st.tuples(
        st.integers(-5, 5),
        st.sampled_from(("red", "green", "blue", "")),
        st.integers(0, 20),
        st.integers(18985, 19030).map(days_to_date),  # 2021-12-24 to 2022-02-07
        st.sampled_from((-1.5, 0.0, 2.0, 3.25)),
    ),
    max_size=60,
)
_col_subsets = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_COLS), min_size=1, max_size=len(_COLS), unique=True).map(tuple),
)


def _comparison(columns, literals):
    return st.builds(
        Comparison, column=st.sampled_from(columns), op=st.sampled_from(_OPS), literal=literals
    )


# Literal ranges overlap the cell ranges, so boundaries (= against <=) get hit.
_int_literals = st.integers(-7, 22).map(Literal.integer)
_text_literals = st.sampled_from(("red", "green", "mauve", "", "50")).map(Literal.text)
_comparisons = st.one_of(
    _comparison(("w", "y", "r"), _int_literals),  # INT literals on INT and REAL columns
    _comparison(("r",), st.sampled_from((-1.5, 0.0, 2.5, 3.25)).map(Literal.real)),
    _comparison(("x",), _text_literals),
    _comparison(("z",), st.integers(18983, 19032).map(lambda d: Literal.date(days_to_date(d)))),
    _comparison(("z",), st.integers(18983, 19032).map(Literal.integer)),  # a day count on a DATE column
    _comparison(("w", "y", "z", "r"), _text_literals),  # text on numeric columns
    _comparison(("x",), _int_literals),  # a number on a TEXT column
    _comparison(("absent",), _int_literals),  # a column the schema lacks
)
_preds = st.one_of(
    st.none(),
    st.lists(_comparisons, min_size=1, max_size=4).map(lambda cs: Predicate(tuple(cs))),
)


def _oracle_match(row, pred):
    """Independent re-statement of predicate semantics for this fixed schema.

    The DATE cell z is ISO text, but it compares as a number, its day
    count, with DATE, INT and REAL literals alike.
    """
    if pred is None:
        return True
    pos = {c: i for i, c in enumerate(_COLS)}
    ops = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }
    for comp in pred.conjuncts:
        if comp.column not in pos:
            return False
        cell = row[pos[comp.column]]
        if comp.column == "z":
            cell = date_to_days(cell)
        want = comp.literal.value
        if isinstance(cell, str) != isinstance(want, str):
            return False
        if not ops[comp.op](cell, want):
            return False
    return True


@given(_rows, _col_subsets, _preds)
def test_extract_segment_matches_oracle(rows, columns, pred):
    with tempfile.TemporaryDirectory() as tmp:
        store = csv_table(tmp, "ns.t", _SCHEMA, rows)
    g = Grant("ns.t", columns, pred)
    if pred is not None and "absent" in pred.columns():
        # Queries match no row on such a column; a grant is refused.
        with pytest.raises(UnknownColumn, match="'absent'"):
            store.extract_segment("ns.t", g, 0)
        return
    seg = store.extract_segment("ns.t", g, 0)

    wanted = list(_COLS) if columns is None else list(columns)
    pos = {c: i for i, c in enumerate(_COLS)}
    expected = tuple(
        tuple(row[pos[c]] for c in wanted) for row in rows if _oracle_match(row, pred)
    )
    assert seg.rows == expected
    assert seg.columns == tuple(wanted)
    assert set(seg.columns) <= set(_COLS)


@given(_rows, _preds, st.one_of(st.none(), st.integers(0, 70)))
def test_compiled_scan_matches_oracle(rows, pred, limit):
    terms = compile_predicate(_SCHEMA, pred)
    expected = [row for row in rows if _oracle_match(row, pred)]
    assert scan(rows, terms) == expected
    assert [rows[i] for i in scan_positions(rows, terms, limit)] == expected[:limit]
    for row in rows:
        assert eval_predicate(row, _SCHEMA, pred) == _oracle_match(row, pred)


def test_impossible_predicate_reads_no_rows():
    class Unreadable(tuple):
        def __iter__(self):
            raise AssertionError("scan read a row")

        def __getitem__(self, index):
            raise AssertionError("scan read a row")

    plain = tuple((k % 7, "red", k, "2022-01-01", k / 4) for k in range(40))
    rows = Unreadable(plain)
    bare = Segment("ns.t", _COLS, _TYPES, rows, 0)
    ordered = Segment("ns.t", _COLS, _TYPES, rows, 0)
    _build_every_order(ordered.orders, plain)
    for comp in (
        Comparison("x", "=", Literal.integer(1)),
        Comparison("w", "!=", Literal.text("red")),
        Comparison("absent", ">", Literal.integer(0)),
    ):
        terms = compile_predicate(_SCHEMA, Predicate((Comparison("w", ">", Literal.integer(0)), comp)))
        assert terms is None
        assert scan(rows, terms) == []
        for limit in (None, 3):
            assert list(scan_positions(rows, terms, limit)) == []
            for seg in (bare, ordered):
                hits, truncated = seg.matches(terms, limit)
                assert (list(hits), truncated) == ([], False)


# ---- DATE columns: ISO text cells, compared by day count ----

_FIRST_DAY = date_to_days("0001-01-01")
_LAST_DAY = date_to_days("9999-12-31")
_DATE_SCHEMA = (("d", "DATE"), ("n", "INT"))
_days = st.one_of(
    st.integers(_FIRST_DAY, _LAST_DAY),
    st.sampled_from((_FIRST_DAY, _FIRST_DAY + 1, -1, 0, 1, 18992, 18993, _LAST_DAY - 1, _LAST_DAY)),
)


def _date_literals(days):
    """DATE, INT and REAL literals near the given day counts, non-integral
    REALs, and numbers past both ends of the date range."""
    near = st.builds(lambda d, k: d + k, st.sampled_from(days), st.integers(-2, 2)).filter(
        lambda d: _FIRST_DAY <= d <= _LAST_DAY
    )
    return st.one_of(
        near.map(lambda d: Literal.date(days_to_date(d))),
        near.map(Literal.integer),
        near.map(float).map(Literal.real),
        st.builds(lambda d, f: Literal.real(d + f), st.sampled_from(days), st.sampled_from((-0.5, 0.25, 0.999))),
        st.sampled_from((_FIRST_DAY - 1, _LAST_DAY + 1, -(10**400), 10**400)).map(Literal.integer),
        st.sampled_from((_FIRST_DAY - 0.5, _LAST_DAY + 0.5, -1e300, 1e300)).map(Literal.real),
        st.sampled_from(("2022-01-01", "", "x")).map(Literal.text),
    )


@given(st.data())
def test_date_column_compares_day_counts(data):
    days = data.draw(st.lists(_days, min_size=1, max_size=12))
    rows = [(days_to_date(d), d) for d in days]
    with tempfile.TemporaryDirectory() as tmp:
        assert csv_table(tmp, "ns.t", _DATE_SCHEMA, rows)._get("ns.t").rows == rows
    comps = data.draw(
        st.lists(
            _comparison(("d",), _date_literals(days))
            | _comparison(("n",), st.sampled_from(days).map(lambda d: Literal.date(days_to_date(d)))),
            min_size=1,
            max_size=3,
        )
    )

    def holds(day, comp):
        want = comp.literal.value
        if isinstance(want, str):
            return False
        return {
            "=": day == want,
            "!=": day != want,
            "<": day < want,
            "<=": day <= want,
            ">": day > want,
            ">=": day >= want,
        }[comp.op]

    expected = [row for row in rows if all(holds(row[1], c) for c in comps)]
    assert scan(rows, compile_predicate(_DATE_SCHEMA, Predicate(tuple(comps)))) == expected


# ---- the wire form ----

# Each column type's cells, with the ones whose JSON is easiest to get
# wrong: -0.0, the smallest subnormal, a REAL that `repr` writes with an
# exponent, a 4300-digit INT (the most `int` reads from text), quotes,
# control characters and non-BMP text.
_WIRE_CELLS = {
    INT: st.integers(min_value=-(2**63), max_value=2**63) | st.sampled_from((10**4299, -(10**4299))),
    REAL: st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((-0.0, 5e-324, 1e16)),
    TEXT: st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
    | st.sampled_from(("],[", '"q"', "\\", "\x00\x1f\n\x7f", "\u2028", "\U0001f600 non-BMP", "日本")),
    DATE: st.dates().map(lambda d: d.isoformat()),
}


@st.composite
def _typed_rows(draw):
    """(column types, rows of cells of those types); no column at all too."""
    types = tuple(draw(st.lists(st.sampled_from(COLUMN_TYPES), max_size=5)))
    rows = draw(st.lists(st.tuples(*(_WIRE_CELLS[t] for t in types)), max_size=12))
    return types, tuple(rows)


def _projections(width: int):
    """Picks of `width` columns: any subset, in any order, no column twice."""
    return st.permutations(range(width)).flatmap(lambda p: st.integers(0, width).map(lambda k: list(p[:k])))


@given(_typed_rows(), st.data())
def test_wire_form_splices_the_canonical_encoding_of_any_positions(typed, data):
    types, rows = typed
    segment = Segment("ns.t", tuple(f"c{i}" for i in range(len(types))), types, rows, 0)
    picks = data.draw(_projections(len(types)))
    projected = [tuple(row[i] for i in picks) for row in rows]
    # A result of every row, encoded cell by cell, builds its
    # projection's wire form, which holds the same bytes.
    encoded, _ = segment.select(picks, (), None)
    wire = segment.wire[tuple(picks)]
    assert b"[" + wire.buf + b"]" == canonical_bytes(projected)
    assert encoded.wire == wire.buf
    hits = sorted(data.draw(st.sets(st.integers(0, max(0, len(rows) - 1)), max_size=len(rows))))
    for picked in (hits, range(len(rows)), range(len(rows) // 2, len(rows))):
        spliced = wire.splice(picked)
        assert spliced == tuple(projected[i] for i in picked)
        assert b"[" + bytes(spliced.wire) + b"]" == canonical_bytes([projected[i] for i in picked])


def _row_slices(wire: WireForm) -> list[bytes]:
    """Each row's bytes by the documented rule: `buf[starts[i]:starts[i+1]-1]`."""
    return [wire.buf[start : end - 1] for start, end in zip(wire.starts, wire.starts[1:])]


def test_wire_form_across_build_steps(monkeypatch):
    # More rows than one build step, so steps join with a comma too.
    types = (INT, TEXT, REAL, DATE)
    rows = tuple((i, "é" * (i % 3), i / 7, days_to_date(19000 + i % 50)) for i in range(2500))
    for picks in ((0, 1, 2, 3), (3, 1)):
        projected = [tuple(row[i] for i in picks) for row in rows]
        wire = WireForm()
        wire.count_sent(rows, picks, types, len(rows) - 1)
        assert wire.buf is None
        wire.count_sent(rows, picks, types, 1)
        assert b"[" + wire.buf + b"]" == canonical_bytes(projected)
        assert _row_slices(wire) == [canonical_bytes(row) for row in projected]
        # 4 B per row start, and one start past the buffer's end.
        assert (wire.starts.typecode, wire.starts.itemsize, len(wire.starts)) == ("I", 4, len(rows) + 1)
        assert wire.starts[-1] == len(wire.buf) + 1
    # A buffer whose last start an array('I') cannot hold gets 8 B starts.
    monkeypatch.setattr(store, "_STARTS_I_LIMIT", len(wire.buf) + 1)
    wide = WireForm()
    wide.count_sent(rows, picks, types, len(rows))
    assert (wide.buf, wide.starts.typecode, list(wide.starts)) == (wire.buf, "q", list(wire.starts))
    assert wide.splice([0, 7, 2499]) == wire.splice([0, 7, 2499]) == tuple(projected[i] for i in (0, 7, 2499))
    empty = WireForm()
    empty.count_sent((), picks, types, 0)
    assert (empty.buf, empty.starts) == (b"", array("I", [0]))


def _in(cell, wanted) -> bool:
    return cell in wanted


def _hit_sets(n: int):
    """(terms on a row's position, cap) whose hits are empty, contiguous,
    scattered, or the `range` that a statement with no terms gets."""
    everything = st.tuples(st.just(()), st.none() | st.integers(0, n + 1))
    if not n:
        return everything
    positions = st.integers(0, n - 1)
    empty = st.just(((0, _in, frozenset()), None))
    contiguous = st.tuples(positions, positions).map(lambda ab: ((0, _in, frozenset(range(min(ab), max(ab) + 1))), None))
    sets = st.sets(positions, min_size=min(2, n))
    scattered = sets.map(lambda hits: ((0, _in, frozenset(hits)), None))
    return everything | empty | contiguous | scattered


@given(_typed_rows(), st.data())
def test_select_bytes_match_the_oracle_before_and_after_each_build(typed, data):
    types, rows = typed
    # A leading position column, which the drawn terms test.
    types, rows = (INT, *types), tuple((i, *row) for i, row in enumerate(rows))
    segment = Segment("ns.t", tuple(f"c{i}" for i in range(len(types))), types, rows, 0)
    plans = data.draw(st.lists(st.tuples(_projections(len(types)), _hit_sets(len(rows))), min_size=1, max_size=6))

    def check(picks, term, cap):
        terms = (term,) if term else ()
        encoded, truncated = segment.select(picks, terms, cap)
        kept = [row for row in rows if all(op(row[i], value) for i, op, value in terms)]
        n = len(kept) if cap is None else min(cap, len(kept))
        assert b"[" + encoded.wire + b"]" == canonical_bytes([[row[i] for i in picks] for row in kept[:n]])
        assert (len(encoded), truncated) == (n, n < len(kept))

    for picks, (term, cap) in plans:
        check(picks, term, cap)
    # A result of every row builds each form the segment holds; a
    # projection past the bound has none and is encoded cell by cell.
    for picks, _ in plans:
        check(picks, (), None)
    assert len(segment.wire) <= len(segment.columns) + 1
    assert all(form.buf is not None for form in segment.wire.values())
    for picks, (term, cap) in plans:
        check(picks, term, cap)


def test_forms_and_counters_stay_within_the_bound():
    types = (INT, TEXT, REAL, DATE)
    rows = tuple((i, f"r{i % 5}", i / 4, days_to_date(19000 + i % 30)) for i in range(40))
    segment = Segment("ns.t", ("a", "b", "c", "d"), types, rows, 0)
    projections = [list(p) for k in (1, 2, 3) for p in permutations(range(4), k)]
    projections += [[0, 0], [1, 2, 1], [3, 3, 3, 3], [0, 1, 2, 3, 0], [0, 1, 2, 3]]
    for _ in range(3):
        for picks in projections:
            for terms, cap in (((), None), (((0, operator.ge, 30),), 4), (((1, operator.eq, "r2"),), None)):
                encoded, _ = segment.select(picks, terms, cap)
                kept = [row for row in rows if all(op(row[i], value) for i, op, value in terms)][:cap]
                assert b"[" + encoded.wire + b"]" == canonical_bytes([[row[i] for i in picks] for row in kept])
                # At most len(columns) + 1 forms, none for a repeated column.
                assert len(segment.wire) <= len(segment.columns) + 1
                assert all(len(set(key)) == len(key) for key in segment.wire)
    # The first four projections took the shared entries, the full-width
    # one, seen last, still got its own, and each built its form.
    assert list(segment.wire) == [(0,), (1,), (2,), (3,), (0, 1, 2, 3)]
    assert all(form.buf is not None for form in segment.wire.values())


def test_scan_positions_agrees_with_scan():
    rows = tuple((i, i % 7) for i in range(50))
    terms = compile_predicate((("a", "INT"), ("b", "INT")), Predicate((Comparison("b", "=", Literal.integer(3)),)))
    for limit in (None, 0, 1, 4, 100):
        assert [rows[i] for i in scan_positions(rows, terms, limit)] == scan(rows, terms)[:limit]
        assert list(scan_positions(rows, (), limit)) == list(range(50 if limit is None else min(50, limit)))


# ---- access paths: a column's sorted order answers as the scan does ----

_real_literals = st.sampled_from((-1.5, 0.0, 2.5, 3.25)).map(Literal.real)
_date_literals_z = st.integers(18983, 19032).map(lambda d: Literal.date(days_to_date(d)))


def _between(column, literals):
    """`column` above one literal and below another: a window."""
    return st.builds(
        lambda low, lo, high, hi: (Comparison(column, low, lo), Comparison(column, high, hi)),
        st.sampled_from((">", ">=")),
        literals,
        st.sampled_from(("<", "<=")),
        literals,
    )


_windows = st.one_of(
    _between("w", _int_literals),
    _between("y", _int_literals),
    _between("r", _real_literals),
    _between("x", _text_literals),
    _between("z", _date_literals_z),
)
_path_preds = st.one_of(
    _preds,
    st.builds(lambda win, rest: Predicate(win + tuple(rest)), _windows, st.lists(_comparisons, max_size=2)),
)
# One orderable term per column, met by every row the strategies draw.
_EVERY_ROW = (
    Comparison("w", ">=", Literal.integer(-100)),
    Comparison("x", ">=", Literal.text("")),
    Comparison("y", ">=", Literal.integer(-100)),
    Comparison("z", ">=", Literal.date("0001-01-01")),
    Comparison("r", ">=", Literal.real(-100.0)),
)


def _build_every_order(orders: ColumnOrders, rows) -> None:
    """Build each column's order by the rule: two full scans with an
    orderable term on it."""
    for comp in _EVERY_ROW:
        terms = compile_predicate(_SCHEMA, Predicate((comp,)))
        for _ in range(2):
            orders.positions(rows, terms)
    assert all(orders.built(i) for i in range(len(_COLS)))


@given(
    _rows,
    _path_preds,
    st.one_of(st.none(), st.integers(0, 70)),
    st.one_of(st.none(), st.integers(0, 70)),
)
def test_sorted_orders_answer_as_the_scan_does(rows, pred, limit, row_limit):
    seg = Segment("ns.t", _COLS, _TYPES, tuple(rows), 0)
    _build_every_order(seg.orders, seg.rows)
    terms = compile_predicate(_SCHEMA, pred)
    caps = [n for n in (limit, row_limit) if n is not None]
    cap = min(caps) if caps else None
    every = list(scan_positions(seg.rows, terms))
    assert every == [i for i, row in enumerate(rows) if _oracle_match(row, pred)]
    hits, truncated = seg.matches(terms, cap)
    assert list(hits) == every[:cap]
    assert truncated == (cap is not None and len(every) > cap)


class _Unscannable(tuple):
    """Rows that refuse to be scanned; looking one up by position is fine."""

    def __iter__(self):
        raise AssertionError("the scan read the rows")


def test_a_window_on_a_built_order_reads_no_row_outside_it():
    rows = tuple((k % 7, "t", k, days_to_date(19000 + k % 30), k / 4) for k in range(200))
    orders = ColumnOrders()
    _build_every_order(orders, rows)
    for pred, expected in (
        ((Comparison("y", ">=", Literal.integer(50)), Comparison("y", "<", Literal.integer(60))), list(range(50, 60))),
        ((Comparison("w", "=", Literal.integer(3)), Comparison("y", "!=", Literal.integer(3))), list(range(10, 200, 7))),
        ((Comparison("z", "=", Literal.date(days_to_date(19004))),), list(range(4, 200, 30))),
        ((Comparison("r", ">", Literal.real(49.0)),), list(range(197, 200))),
    ):
        terms = compile_predicate(_SCHEMA, Predicate(pred))
        assert list(orders.positions(_Unscannable(rows), terms)) == expected
    # `!=` and a day count on a DATE column never narrow an order: the scan runs.
    for comp in (Comparison("y", "!=", Literal.integer(3)), Comparison("z", "<", Literal.integer(19001))):
        terms = compile_predicate(_SCHEMA, Predicate((comp,)))
        with pytest.raises(AssertionError, match="the scan read the rows"):
            orders.positions(_Unscannable(rows), terms)


def test_a_column_already_in_row_order_costs_no_memory_and_no_sort():
    rows = tuple((k // 3, "t", 0, "2022-01-01", 0.0) for k in range(90))
    orders = ColumnOrders()
    _build_every_order(orders, rows)
    terms = compile_predicate(_SCHEMA, Predicate((Comparison("w", ">=", Literal.integer(10)),)))
    # The LIMIT reads two rows, though the window holds sixty.
    assert orders.positions(_Unscannable(rows), terms, 2) == range(30, 32)
