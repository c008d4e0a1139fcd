"""Table store: registration, CSV loading, and segment extraction vs oracle."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclave_broker.contracts import Grant
from enclave_broker.errors import BadConfig, DuplicateTable, TypeMismatch, UnknownSource
from enclave_broker.model import Comparison, Literal, Predicate, date_to_days, days_to_date
from enclave_broker.store import (
    TableStore,
    compile_predicate,
    eval_predicate,
    load_table_csv,
    scan,
)

from conftest import C1_SEGMENT_ROWS, ORDERS_CSV, ORDERS_ROWS, ORDERS_SCHEMA, orders_store


def test_register_rejects_duplicates_and_bad_shapes():
    store = orders_store()
    with pytest.raises(DuplicateTable):
        store.register_table("warehouse.orders", ORDERS_SCHEMA, [])
    with pytest.raises(BadConfig):
        store.register_table("unqualified", (("a", "INT"),), [])
    with pytest.raises(TypeMismatch):
        store.register_table("ns.bad", (("a", "BLOB"),), [])
    with pytest.raises(BadConfig):
        store.register_table("ns.dup", (("a", "INT"), ("a", "INT")), [])
    with pytest.raises(TypeMismatch):
        store.register_table("ns.short", (("a", "INT"), ("b", "TEXT")), [(1,)])
    with pytest.raises(TypeMismatch):
        store.register_table("ns.badcell", (("a", "INT"),), [("one",)])


def test_bool_is_not_an_int_cell():
    store = TableStore()
    with pytest.raises(TypeMismatch):
        store.register_table("ns.t", (("a", "INT"),), [(True,)])


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


def test_extract_fixture_segment():
    store = orders_store()
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


def test_extract_all_columns_keeps_schema_order():
    store = orders_store()
    seg = store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 0)
    assert seg.columns == ("order_id", "customer", "amount", "created_at")
    assert seg.rows == tuple(tuple(r) for r in ORDERS_ROWS)


def test_extract_unknown_table():
    with pytest.raises(UnknownSource):
        orders_store().extract_segment("warehouse.nothing", Grant("warehouse.nothing", None), 0)


def test_snapshot_isolation():
    store = orders_store()
    seg = store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 0)
    before = seg.rows
    store.append_row("warehouse.orders", (9, "initech", 1, date_to_days("2025-03-01")))
    assert seg.rows == before
    fresh = store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 1)
    assert len(fresh.rows) == len(before) + 1


def test_reads_are_counted():
    store = orders_store()
    assert store.reads == 0
    store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 0)
    store.extract_segment("warehouse.orders", Grant("warehouse.orders", None), 0)
    assert store.reads == 2


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


def test_load_csv_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a\nINT\nnotanumber\n", encoding="utf-8")
    with pytest.raises(TypeMismatch):
        load_table_csv(TableStore(), "ns.bad", path)
    path.write_text("a\nDATE\n2025-99-99\n", encoding="utf-8")
    with pytest.raises(TypeMismatch):
        load_table_csv(TableStore(), "ns.bad2", path)


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
        st.integers(19000, 19010),  # day counts in January 2022
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
    _comparison(("z",), st.integers(18998, 19012).map(lambda d: Literal.date(days_to_date(d)))),
    _comparison(("w", "y", "z", "r"), _text_literals),  # text on numeric columns
    _comparison(("x",), _int_literals),  # a number on a TEXT column
    _comparison(("absent",), _int_literals),  # a column the schema lacks
)
_preds = st.one_of(
    st.none(),
    st.lists(_comparisons, min_size=1, max_size=4).map(lambda cs: Predicate(tuple(cs))),
)


def _oracle_match(row, pred):
    """Independent re-statement of predicate semantics for this fixed schema."""
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
        want = comp.literal.value
        if isinstance(cell, str) != isinstance(want, str):
            return False
        if not ops[comp.op](cell, want):
            return False
    return True


@given(_rows, _col_subsets, _preds)
def test_extract_segment_matches_oracle(rows, columns, pred):
    store = TableStore()
    store.register_table("ns.t", _SCHEMA, rows)
    g = Grant("ns.t", columns, pred)
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
    match = compile_predicate(_SCHEMA, pred)
    expected = [row for row in rows if _oracle_match(row, pred)]
    assert scan(rows, match, limit) == expected[:limit]
    for row in rows:
        assert eval_predicate(row, _SCHEMA, pred) == _oracle_match(row, pred)


def test_impossible_predicate_reads_no_rows():
    class Unreadable:
        def __iter__(self):
            raise AssertionError("scan read a row")

    for comp in (
        Comparison("x", "=", Literal.integer(1)),
        Comparison("w", "!=", Literal.text("red")),
        Comparison("absent", ">", Literal.integer(0)),
    ):
        pred = Predicate((Comparison("w", ">", Literal.integer(0)), comp))
        assert scan(Unreadable(), compile_predicate(_SCHEMA, pred), None) == []
