"""Gateway: sessions, the authorize decision table, execution, mediation."""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace

import pytest

from enclave_broker.broker import BrokerCore
from enclave_broker.canonical import canonical_bytes
from enclave_broker.contracts import Grant, activate
from enclave_broker.enclave import (
    CAUSE_EXPIRY,
    CAUSE_REVOCATION,
    create_enclave,
    expire_or_revoke,
    open_gate,
    provision,
    seal,
)
from enclave_broker.errors import (
    BadToken,
    ContractExpired,
    EnclaveNotServing,
    ParseError,
    SessionDead,
)
from enclave_broker.gateway import DenialError, QueryGateway, authorize
from enclave_broker.model import Comparison, Literal, Predicate, days_to_date
from enclave_broker.query import parse_query
from enclave_broker.store import EncodedRows

from conftest import ORDERS_SCHEMA, append_row, count_extracts, make_core, no_record, write_csv
from test_contracts import draft

TOKEN = "tok-alpha"


def rig(tmp_path, c=None, rows=None, now=0):
    """A Serving enclave with its gateway, which emits through a broker
    core's ledger and monitor (see `core_of`). The core has a data dir of
    its own under `tmp_path`, and its store holds the orders table: the
    fixture rows, or `rows` if given."""
    data_dir = tempfile.mkdtemp(dir=tmp_path)
    overrides = {}
    if rows is not None:
        overrides["tables"] = {"warehouse.orders": write_csv(data_dir, "orders", ORDERS_SCHEMA, rows)}
    core = make_core(data_dir, **overrides)
    store = core.store
    c = c or activate(
        draft(
            grants=(
                Grant(
                    "warehouse.orders",
                    ("order_id", "amount", "created_at"),
                    Predicate((Comparison("created_at", ">=", Literal.date("2025-01-01")),)),
                ),
            ),
            ttl=3600,
        ),
        now,
    )
    e = create_enclave(c, now, no_record)
    provision(e, c, store, now, no_record)
    seal(e, no_record)
    open_gate(e, no_record)
    return core.gateway, e, c, store


def core_of(gw: QueryGateway) -> BrokerCore:
    """The broker whose `emit` the gateway writes through."""
    return gw._emit.__self__


def open_rig(tmp_path, now=0):
    gw, e, c, store = rig(tmp_path, now=now)
    s = gw.open_session(e, c, TOKEN, TOKEN, now)
    return gw, e, c, s


# ---- sessions ----


def test_open_session_requires_serving(tmp_path):
    gw, e, c, _ = rig(tmp_path)
    expire_or_revoke(e, CAUSE_EXPIRY, no_record)
    with pytest.raises(EnclaveNotServing):
        gw.open_session(e, c, TOKEN, TOKEN, 1)


def test_open_session_checks_token(tmp_path):
    gw, e, c, _ = rig(tmp_path)
    with pytest.raises(BadToken):
        gw.open_session(e, c, TOKEN, "tok-other", 0)
    with pytest.raises(BadToken):
        gw.open_session(e, c, None, TOKEN, 0)


def test_open_session_checks_liveness(tmp_path):
    gw, e, c, _ = rig(tmp_path)
    with pytest.raises(ContractExpired):
        gw.open_session(e, c, TOKEN, TOKEN, c.activated_at + c.ttl)


def test_session_lifecycle_audited(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    gw.close_session(s, c.principal)
    with pytest.raises(SessionDead):
        gw.close_session(s, c.principal)
    kinds = [ev.kind for ev in core_of(gw).ledger.events()]
    assert kinds == ["SessionOpened", "SessionClosed"]


# ---- authorize ----


def q(text):
    return parse_query(text)


def test_authorize_decision_table(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    now = 0
    assert authorize(q("SHOW TABLES"), c, s, e, now) is None
    assert authorize(q("SELECT * FROM orders"), c, s, e, now) is None
    assert authorize(q("SELECT order_id FROM orders"), c, s, e, now) is None
    assert authorize(q("COPY INTO s3://x FROM orders"), c, s, e, now) == "StatementForbidden"
    assert authorize(q("SELECT * FROM invoices"), c, s, e, now) == "UnknownTable"
    assert authorize(q("SELECT customer FROM orders"), c, s, e, now) == "ColumnOutOfScope"
    where = q("SELECT order_id FROM orders WHERE customer = \"x\"")
    assert authorize(where, c, s, e, now) == "ColumnOutOfScope"
    assert authorize(q("SELECT order_id FROM orders"), c, s, e, 3600) == "ContractExpired"
    s.closed = True
    assert authorize(q("SELECT order_id FROM orders"), c, s, e, now) == "SessionDead"
    s.closed = False
    # A session on an enclave that has left Serving is dead, even before
    # its contract stops being live.
    expire_or_revoke(e, CAUSE_REVOCATION, no_record)
    assert authorize(q("SHOW TABLES"), c, s, e, now) == "SessionDead"
    assert authorize(q("SELECT order_id FROM orders"), c, s, e, now) == "SessionDead"


def test_authorize_copy_wins_even_when_session_dead(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    s.closed = True
    assert authorize(q("COPY INTO s3://x FROM orders"), c, s, e, 0) == "StatementForbidden"


def test_authorize_expiry_outranks_invalidated_session(tmp_path):
    # A sweep both expires the contract and shuts its enclave; the
    # contract is the reason the access died, so that is the answer.
    gw, e, c, s = open_rig(tmp_path)
    expire_or_revoke(e, CAUSE_EXPIRY, no_record)
    assert authorize(q("SELECT order_id FROM orders"), c, s, e, 3600) == "ContractExpired"


def test_all_columns_grant_allows_everything(tmp_path):
    c = activate(draft(grants=(Grant("warehouse.orders", None),)), 0)
    gw, e, _, _ = rig(tmp_path, c=c)
    s = gw.open_session(e, c, TOKEN, TOKEN, 0)
    assert authorize(q("SELECT customer FROM orders"), c, s, e, 0) is None


# ---- execute ----


def test_show_tables_lists_grant_tables_once(tmp_path):
    c = activate(
        draft(
            grants=(
                Grant("warehouse.orders", ("order_id",)),
                Grant("warehouse.orders", ("amount",)),
            )
        ),
        0,
    )
    gw, e, _, _ = rig(tmp_path, c=c)
    s = gw.open_session(e, c, TOKEN, TOKEN, 0)
    result = gw.execute(s, e, c, "SHOW TABLES", 0)
    assert result.columns == ("table",)
    assert result.rows == (("orders",),)


def test_select_star_returns_sealed_segment(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    result = gw.execute(s, e, c, "SELECT * FROM orders", 0)
    assert result.columns == ("order_id", "amount", "created_at")
    assert result.rows == e.segments[0].rows
    assert not result.truncated


def test_select_filters_and_projects_segment(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    result = gw.execute(s, e, c, "SELECT order_id FROM orders WHERE amount > 100", 0)
    assert result.columns == ("order_id",)
    assert result.rows == ((2,),)


def test_dates_render_as_iso_in_json(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    out = gw.execute(s, e, c, "SELECT created_at FROM orders LIMIT 1", 0).to_json()
    assert out["rows"] == (("2025-01-15",),)
    assert json.dumps(out["rows"]) == '[["2025-01-15"]]'
    assert out["truncated"] is True


def test_json_passes_result_rows_through(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    for text in ("SELECT * FROM orders", "SELECT created_at, order_id FROM orders WHERE created_at > 2025-01-20"):
        result = gw.execute(s, e, c, text, 0)
        assert result.rows
        assert result.to_json()["rows"] is result.rows


def test_json_rows_are_row_tuples_with_or_without_dates(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    for text in ("SELECT order_id FROM orders", "SELECT order_id, created_at FROM orders"):
        rows = gw.execute(s, e, c, text, 0).to_json()["rows"]
        assert type(rows) is tuple
        assert all(type(row) is tuple for row in rows)


def test_limit_truncates_and_flags(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    result = gw.execute(s, e, c, "SELECT order_id FROM orders LIMIT 1", 0)
    assert len(result.rows) == 1
    assert result.truncated
    # Exactly LIMIT matches is a whole result, not a truncated one.
    result = gw.execute(s, e, c, "SELECT order_id FROM orders LIMIT 2", 0)
    assert result.rows == ((2,), (3,))
    assert not result.truncated


def _thousand_row_rig(tmp_path, grant=Grant("warehouse.orders", None)):
    rows = [(i, "acme", i % 97, days_to_date(20000 + i % 400)) for i in range(1000)]
    c = activate(draft(grants=(grant,)), 0)
    gw, e, _, _ = rig(tmp_path, c=c, rows=rows)
    return gw, e, c, gw.open_session(e, c, TOKEN, TOKEN, 0)


def test_wire_form_is_built_once_full_width_results_sent_the_segment(tmp_path):
    gw, e, c, s = _thousand_row_rig(tmp_path)
    segment = e.segments[0]
    for _ in range(50):
        gw.execute(s, e, c, "SELECT * FROM orders LIMIT 10", 0)
    assert segment.wire.buf is None
    # Projected and denied statements never count.
    for text in (
        "SELECT order_id FROM orders",
        "SELECT customer, order_id, amount, created_at FROM orders",
        "SELECT * FROM ghosts",
        "COPY INTO s3://x FROM orders",
    ):
        try:
            gw.execute(s, e, c, text, 0)
        except DenialError:
            pass
    assert segment.wire.sent == 500
    # All columns in segment order is a full-width result too.
    gw.execute(s, e, c, "SELECT order_id, customer, amount, created_at FROM orders LIMIT 499", 0)
    assert segment.wire.buf is None
    unbuilt = gw.execute(s, e, c, "SELECT * FROM orders WHERE amount >= 50 LIMIT 1", 0)
    assert segment.wire.sent == 1000
    assert segment.wire.buf is not None
    assert b"[" + segment.wire.buf + b"]" == canonical_bytes(segment.rows)
    # Served from the wire form now: the same rows, carrying their bytes.
    built = gw.execute(s, e, c, "SELECT * FROM orders WHERE amount >= 50 LIMIT 1", 0)
    assert built == unbuilt
    assert isinstance(built.rows, EncodedRows)
    assert b"[" + bytes(built.rows.wire) + b"]" == canonical_bytes(built.rows)


def test_wire_form_answers_match_the_scan_path(tmp_path):
    gw, e, c, s = _thousand_row_rig(tmp_path)
    texts = [
        "SELECT * FROM orders",
        "SELECT * FROM orders WHERE amount > 500",
        "SELECT * FROM orders WHERE amount = 5",
        "SELECT * FROM orders WHERE amount > 90 LIMIT 30",
        "SELECT * FROM orders WHERE order_id >= 100 AND order_id < 200",
        "SELECT * FROM orders WHERE order_id >= 990 LIMIT 10",
        'SELECT * FROM orders WHERE customer = "globex"',
        "SELECT * FROM orders WHERE created_at >= 2025-01-01",
    ]
    before = [gw.execute(s, e, c, text, 0) for text in texts]
    assert e.segments[0].wire.buf is not None
    after = [gw.execute(s, e, c, text, 0) for text in texts]
    assert after == before
    for result in after:
        assert b"[" + bytes(result.rows.wire) + b"]" == canonical_bytes(result.rows)


def _built(e, column: str) -> bool:
    segment = e.segments[0]
    return segment.orders.built(segment.columns.index(column))


def test_a_column_order_is_built_once_scans_examined_twice_its_rows(tmp_path):
    gw, e, c, s = _thousand_row_rig(tmp_path)
    gw.execute(s, e, c, "SELECT * FROM orders WHERE amount >= 0", 0)  # 1000 rows
    # amount = 27 at rows 27, 124, ..., 997: the 11th match stops a LIMIT 10.
    gw.execute(s, e, c, "SELECT order_id FROM orders WHERE amount = 27 LIMIT 10", 0)  # 998
    assert not _built(e, "amount")
    gw.execute(s, e, c, "SELECT order_id FROM orders WHERE amount <= 1 LIMIT 1", 0)  # 2
    assert _built(e, "amount")
    assert not any(_built(e, col) for col in ("order_id", "customer", "created_at"))


def test_denied_and_unorderable_statements_count_nothing_toward_an_order(tmp_path):
    gw, e, c, s = _thousand_row_rig(tmp_path, Grant("warehouse.orders", ("order_id", "amount", "created_at")))
    for _ in range(5):
        for text in (
            "SELECT customer FROM orders WHERE amount > 0",
            "SELECT * FROM ghosts WHERE amount > 0",
            "SELECT order_id FROM orders WHERE amount != 5",
            "SELECT order_id FROM orders WHERE created_at > 20100",
            'SELECT order_id FROM orders WHERE amount = "5"',
        ):
            try:
                gw.execute(s, e, c, text, 0)
            except DenialError:
                pass
    gw.execute(s, e, c, "SELECT order_id FROM orders WHERE amount >= 0", 0)
    assert not _built(e, "amount")
    gw.execute(s, e, c, "SELECT order_id FROM orders WHERE amount >= 0 AND created_at != 2025-01-01", 0)
    assert _built(e, "amount")
    assert not _built(e, "created_at")


def test_a_restart_shaped_stream_builds_no_order(tmp_path):
    # Per column, one full scan and one that its LIMIT stops at 100 rows:
    # 1.1 times the rows in all, short of the two full scans a build costs.
    gw, e, c, s = _thousand_row_rig(tmp_path)
    for col, full, stopped in (
        ("order_id", "order_id < 10", "order_id >= 0"),
        ("amount", "amount < 3", "amount >= 0"),
        ("customer", 'customer = "globex"', 'customer >= ""'),
        ("created_at", "created_at < 2024-10-01", "created_at >= 2024-01-01"),
    ):
        gw.execute(s, e, c, f"SELECT * FROM orders WHERE {full}", 0)
        gw.execute(s, e, c, f"SELECT order_id FROM orders WHERE {stopped} LIMIT 99", 0)
        assert not _built(e, col)


def test_results_are_the_same_before_and_after_orders_are_built(tmp_path):
    grant = Grant("warehouse.orders", None, None, 40)
    texts = [
        "SELECT * FROM orders WHERE amount >= 10 AND amount < 12",
        "SELECT order_id, amount FROM orders WHERE amount > 90 LIMIT 30",
        "SELECT * FROM orders WHERE amount = 5 AND order_id >= 500",
        "SELECT order_id FROM orders WHERE order_id >= 100 AND order_id <= 120",
        "SELECT * FROM orders WHERE created_at >= 2024-10-04 AND created_at < 2024-10-06",
        "SELECT amount FROM orders WHERE created_at > 20100 AND amount <= 1",
        "SELECT * FROM orders WHERE amount >= 0 LIMIT 5",
        "SELECT * FROM orders WHERE amount >= 0",
        "SELECT * FROM orders WHERE amount != 3 AND amount < 4",
    ]
    # One statement on a fresh segment is always a scan.
    scanned = []
    for text in texts:
        gw, e, c, s = _thousand_row_rig(tmp_path, grant)
        scanned.append(gw.execute(s, e, c, text, 0))
    assert [r.truncated for r in scanned] == [False, True, False, False, False, False, True, True, False]
    assert len(scanned[4].rows) == 6
    gw, e, c, s = _thousand_row_rig(tmp_path, grant)
    for _ in range(4):
        assert [gw.execute(s, e, c, text, 0) for text in texts] == scanned
    assert all(_built(e, col) for col in ("order_id", "amount", "created_at"))


class _CountingRows(tuple):
    """Segment rows that count how many of them a scan reads."""

    def __iter__(self):
        self.seen = 0
        for row in tuple.__iter__(self):
            self.seen += 1
            yield row


def test_limited_select_stops_after_limit_plus_one_matches(tmp_path):
    rows = [(i, "acme", i, days_to_date(20000 + i)) for i in range(50)]
    c = activate(draft(grants=(Grant("warehouse.orders", None),)), 0)
    gw, e, _, _ = rig(tmp_path, c=c, rows=rows)
    e.segments[0] = replace(e.segments[0], rows=_CountingRows(e.segments[0].rows))
    s = gw.open_session(e, c, TOKEN, TOKEN, 0)
    result = gw.execute(s, e, c, "SELECT order_id FROM orders WHERE amount >= 0 LIMIT 5", 0)
    assert result.rows == tuple((i,) for i in range(5))
    assert result.truncated
    assert e.segments[0].rows.seen <= 6


def test_grant_row_limit_caps_every_query(tmp_path):
    c = activate(draft(grants=(Grant("warehouse.orders", None, None, 2),)), 0)
    gw, e, _, _ = rig(tmp_path, c=c)
    s = gw.open_session(e, c, TOKEN, TOKEN, 0)
    result = gw.execute(s, e, c, "SELECT * FROM orders", 0)
    assert len(result.rows) == 2
    assert result.truncated
    # The tighter of the two limits wins.
    result = gw.execute(s, e, c, "SELECT * FROM orders LIMIT 1", 0)
    assert len(result.rows) == 1
    result = gw.execute(s, e, c, "SELECT * FROM orders LIMIT 100", 0)
    assert len(result.rows) == 2
    assert result.truncated


def test_denials_raise_and_carry_codes(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    with pytest.raises(DenialError) as exc:
        gw.execute(s, e, c, "COPY INTO s3://evil FROM orders", 0)
    assert exc.value.code == "StatementForbidden"
    with pytest.raises(DenialError) as exc2:
        gw.execute(s, e, c, "SELECT customer FROM orders", 0)
    assert exc2.value.code == "ColumnOutOfScope"


def test_execution_never_touches_the_store(tmp_path, monkeypatch):
    gw, e, c, _ = rig(tmp_path)
    s = gw.open_session(e, c, TOKEN, TOKEN, 0)
    extracts = count_extracts(monkeypatch)
    gw.execute(s, e, c, "SELECT * FROM orders", 0)
    gw.execute(s, e, c, "SHOW TABLES", 0)
    with pytest.raises(DenialError):
        gw.execute(s, e, c, "SELECT customer FROM orders", 0)
    assert extracts == []


def test_segment_not_source_serves_queries(tmp_path):
    # Rows appended after sealing are invisible to the session.
    gw, e, c, store = rig(tmp_path)
    s = gw.open_session(e, c, TOKEN, TOKEN, 0)
    before = gw.execute(s, e, c, "SELECT * FROM orders", 0).rows
    append_row(store, "warehouse.orders", (4, "globex", 999, "2025-04-22"))
    assert gw.execute(s, e, c, "SELECT * FROM orders", 0).rows == before


def test_every_statement_is_audited_and_monitored(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    gw.execute(s, e, c, "SHOW TABLES", 0)
    gw.execute(s, e, c, "SELECT * FROM orders", 0)
    with pytest.raises(DenialError):
        gw.execute(s, e, c, "COPY INTO s3://x FROM orders", 0)
    with pytest.raises(ParseError):
        gw.execute(s, e, c, "DROP TABLE orders", 0)
    logged = [ev for ev in core_of(gw).ledger.events() if ev.kind in ("QueryExecuted", "QueryDenied")]
    statements = ["SHOW TABLES", "SELECT * FROM orders", "COPY INTO s3://x FROM orders", "DROP TABLE orders"]
    assert [ev.payload["statement"] for ev in logged] == statements
    assert len(core_of(gw).monitor.events) == 4
    # The unparseable statement is a denial with the raw text preserved.
    bad = logged[-1]
    assert bad.kind == "QueryDenied"
    assert bad.payload["statement"] == "DROP TABLE orders"
    assert bad.payload["statement_kind"] == "Invalid"
    assert "error" in bad.payload


def test_alerts_are_audited_in_order(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    gw.execute(s, e, c, "SHOW TABLES", 0)
    gw.execute(s, e, c, "SELECT * FROM orders", 0)
    with pytest.raises(DenialError):
        gw.execute(s, e, c, "COPY INTO s3://x FROM orders", 0)
    kinds = [ev.kind for ev in core_of(gw).ledger.events()]
    assert kinds == [
        "SessionOpened",
        "QueryExecuted",
        "QueryExecuted",
        "AlertRaised",
        "QueryDenied",
        "AlertRaised",
    ]
    rules = [
        ev.payload["rule"] for ev in core_of(gw).ledger.events() if ev.kind == "AlertRaised"
    ]
    assert rules == ["EnumerationPattern", "ExfiltrationAttempt"]


def test_invalidation_kills_all_enclave_sessions(tmp_path):
    gw, e, c, store = rig(tmp_path)
    s1 = gw.open_session(e, c, TOKEN, TOKEN, 0)
    s2 = gw.open_session(e, c, TOKEN, TOKEN, 0)
    # A session on another contract's enclave, through the same gateway.
    other_c = replace(c, contract_id="c-other")
    other_e = create_enclave(other_c, 0, no_record)
    provision(other_e, other_c, store, 0, no_record)
    seal(other_e, no_record)
    open_gate(other_e, no_record)
    other = gw.open_session(other_e, other_c, TOKEN, TOKEN, 0)
    expire_or_revoke(e, CAUSE_REVOCATION, no_record)
    for s in (s1, s2):
        with pytest.raises(DenialError) as exc:
            gw.execute(s, e, c, "SELECT order_id FROM orders", 1)
        assert exc.value.code == "SessionDead"
    assert gw.execute(other, other_e, other_c, "SELECT order_id FROM orders", 1).rows


def test_star_never_leaks_ungranted_columns(tmp_path):
    gw, e, c, s = open_rig(tmp_path)
    result = gw.execute(s, e, c, "SELECT * FROM orders", 0)
    assert "customer" not in result.columns
    for row in result.rows:
        assert "acme" not in row and "globex" not in row
