"""End-to-end acceptance gates, one per shipped guarantee.

Every test prints a single "name: PASS" or "name: FAIL" line on the
terminal, lifted past output capture, so the verdict is visible. Each gate
is self-contained: it builds its own broker, data, and adversary.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
import string
import subprocess
import sys
import time

import pytest

from enclave_broker import audit as audit_mod
from enclave_broker.audit import AuditLedger
from enclave_broker.contract_dsl import KEYWORDS, parse_contract, print_contract
from enclave_broker.contracts import DataContract, Grant, activate
from enclave_broker.enclave import (
    PROVISIONING,
    REVOKED,
    SERVING,
    STATES,
    CAUSE_BREAK_GLASS_AUTO,
    CAUSE_EXPIRY,
    CAUSE_REVOCATION,
    create_enclave,
    expire_or_revoke,
    open_gate,
    provision,
    seal,
)
from enclave_broker.errors import ParseError, StateError, UnknownSource
from enclave_broker.lexer import escape_string
from enclave_broker.model import (
    DATE,
    INT,
    REAL,
    TEXT,
    OPS as COMPARE_OPS,
    Comparison,
    Literal,
    Predicate,
    date_to_days,
    days_to_date,
)
from enclave_broker.query import RESERVED, parse_query, print_query
from enclave_broker.server import BrokerServer
from enclave_broker.store import TableStore

from conftest import (
    C1_TEXT,
    append_row,
    count_extracts,
    csv_table,
    fold_transitions,
    live_grants,
    make_core,
    no_record,
    write_csv,
)


@pytest.fixture
def verdict(capsys):
    """One visible line per gate, printed past pytest's capture."""

    @contextlib.contextmanager
    def gate(name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"{name}: FAIL", flush=True)
            raise
        with capsys.disabled():
            print(f"{name}: PASS", flush=True)

    return gate


def ok(core, op, args=None, token=None):
    request = {"op": op, "id": 1, "args": args or {}}
    if token is not None:
        request["token"] = token
    resp = core.handle(request)
    assert resp["ok"], resp
    return resp["result"]


def fail_code(core, op, args=None, token=None):
    request = {"op": op, "id": 1, "args": args or {}}
    if token is not None:
        request["token"] = token
    resp = core.handle(request)
    assert not resp["ok"], resp
    return resp["error"]["code"]


# ---------------------------------------------------------------- man-trap


def test_man_trap_safety(verdict, tmp_path):
    """No reachable schedule ever holds both doors open at once."""
    with verdict("man-trap safety"):
        started = time.monotonic()
        good = csv_table(tmp_path, "ns.t", (("a", INT),), [(1,), (2,)])
        empty = TableStore()
        contract = activate(
            DataContract("mt", "p", "walk", (Grant("ns.t", ("a",)),), ttl=10**9), 0
        )

        recorded = []

        def record(e, from_state, to_state, cause):
            # Called before the move, so the enclave is still in from_state.
            assert from_state == (None if to_state == "Defined" else e.state)
            recorded.append(to_state)

        ops = {
            "provision": lambda e, t: provision(e, contract, good, t, record),
            "provision_fail": lambda e, t: provision(e, contract, empty, t, record),
            "seal": lambda e, t: seal(e, record),
            "open_gate": lambda e, t: open_gate(e, record),
            "expire": lambda e, t: expire_or_revoke(e, CAUSE_EXPIRY, record),
            "revoke": lambda e, t: expire_or_revoke(e, CAUSE_REVOCATION, record),
        }
        names = tuple(ops)
        seen_states = set()

        def run_schedule(schedule):
            recorded.clear()
            e = create_enclave(contract, 0, record, enclave_id="enc-walk")
            seen_states.add(e.state)
            for t, name in enumerate(schedule, start=1):
                before = (e.state, e.upstream_open, e.gateway_open)
                try:
                    ops[name](e, t)
                except StateError:
                    # Illegal transitions are rejected and change nothing.
                    assert (e.state, e.upstream_open, e.gateway_open) == before
                except UnknownSource:
                    assert name == "provision_fail"
                    assert e.state == REVOKED and e.segments == {}
                assert not (e.upstream_open and e.gateway_open)
                assert not e.upstream_open or e.state == PROVISIONING
                assert not e.gateway_open or e.state == SERVING
                assert recorded[-1] == e.state
                e.check_doors()
                seen_states.add(e.state)

        for schedule in itertools.product(names, repeat=6):
            run_schedule(schedule)
        rng = random.Random(20250819)
        for _ in range(1000):
            run_schedule(rng.choices(names, k=12))

        assert seen_states == set(STATES)
        elapsed = time.monotonic() - started
        assert elapsed < 30, f"walk took {elapsed:.1f}s"


# ------------------------------------------------------- oracle containment

_CELL_TYPES = (INT, REAL, TEXT, DATE)
_WORDS = ("red", "blue", "green", "umber", "teal", "plum")

_ORACLE_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _oracle_match(row, col_index, types, predicate):
    """Independent row filter: number-with-number, text-with-text, else no.

    A DATE cell is ISO text, but it is a number here: its day count,
    compared with any DATE, INT or REAL literal's number.
    """
    if predicate is None:
        return True
    for comp in predicate.conjuncts:
        cell = row[col_index[comp.column]]
        if types[comp.column] == DATE:
            cell = date_to_days(cell)
        want = comp.literal.value
        if isinstance(cell, str) != isinstance(want, str):
            return False
        if not _ORACLE_OPS[comp.op](cell, want):
            return False
    return True


def _rand_cell(rng, typ):
    if typ == INT:
        return rng.randint(-50, 50)
    if typ == REAL:
        return rng.randint(-800, 800) / 16
    if typ == TEXT:
        return rng.choice(_WORDS)
    return days_to_date(rng.randint(19700, 20300))


def _rand_literal(rng, typ):
    if rng.random() < 0.1:
        typ = rng.choice([t for t in _CELL_TYPES if t != typ])
    if typ == INT:
        return Literal.integer(rng.randint(-50, 50))
    if typ == REAL:
        return Literal.real(rng.randint(-800, 800) / 16)
    if typ == TEXT:
        return Literal.text(rng.choice(_WORDS))
    return Literal.date(days_to_date(rng.randint(19700, 20300)))


def _rand_predicate(rng, types, columns):
    n = rng.choice((0, 1, 1, 2))
    if n == 0:
        return None
    comps = []
    for _ in range(n):
        col = rng.choice(columns)
        comps.append(Comparison(col, rng.choice(COMPARE_OPS), _rand_literal(rng, types[col])))
    return Predicate(tuple(comps))


def _literal_text(lit):
    if lit.kind == TEXT:
        return escape_string(lit.value)
    if lit.kind == DATE:
        return days_to_date(lit.value)
    return repr(lit.value) if lit.kind == REAL else str(lit.value)


def _select_text(columns, predicate, limit):
    parts = ["SELECT", "*" if columns is None else ", ".join(columns), "FROM data"]
    if predicate is not None:
        parts.append("WHERE")
        parts.append(
            " AND ".join(
                f"{c.column} {c.op} {_literal_text(c.literal)}" for c in predicate.conjuncts
            )
        )
    if limit is not None:
        parts.append(f"LIMIT {limit}")
    return " ".join(parts)


def _containment_trial(rng, data_dir, extracts):
    """One random table, grant and statement; `extracts` grows by each
    table a `TableStore.extract_segment` call reads."""
    ncols = rng.randint(3, 6)
    all_cols = tuple(f"c{i}" for i in range(ncols))
    schema = tuple((name, rng.choice(_CELL_TYPES)) for name in all_cols)
    types = dict(schema)
    nrows = rng.choice((0, rng.randint(1, 40), rng.randint(1, 40), rng.randint(200, 1000)))
    rows = [tuple(_rand_cell(rng, types[c]) for c in all_cols) for _ in range(nrows)]
    data_dir.mkdir()
    core = make_core(data_dir, tables={"ns.data": write_csv(data_dir, "ns.data", schema, rows)})
    store = core.store

    grant_cols = tuple(rng.sample(all_cols, rng.randint(1, ncols)))
    grant_pred = _rand_predicate(rng, types, all_cols)
    row_limit = rng.choice((None, None, rng.randint(1, 30)))
    contract = activate(
        DataContract(
            "cx", "p", "trial", (Grant("ns.data", grant_cols, grant_pred, row_limit),), ttl=10**6
        ),
        0,
    )
    e = create_enclave(contract, 0, no_record)
    provision(e, contract, store, 0, no_record)
    seal(e, no_record)
    open_gate(e, no_record)
    gw = core.gateway
    s = gw.open_session(e, contract, "tok", "tok", 0)
    extracts_after_provision = len(extracts)

    q_cols = (
        None
        if rng.random() < 0.3
        else tuple(rng.sample(grant_cols, rng.randint(1, len(grant_cols))))
    )
    q_pred = _rand_predicate(rng, types, grant_cols)
    q_limit = rng.choice((None, None, rng.randint(1, 25)))
    text = _select_text(q_cols, q_pred, q_limit)

    # The oracle: filter-project at provision time, then project-filter-limit.
    col_index = {c: i for i, c in enumerate(all_cols)}
    snapshot = [r for r in rows if _oracle_match(r, col_index, types, grant_pred)]
    seg_rows = [tuple(r[col_index[c]] for c in grant_cols) for r in snapshot]
    seg_index = {c: i for i, c in enumerate(grant_cols)}
    out_cols = grant_cols if q_cols is None else q_cols
    matched = [r for r in seg_rows if _oracle_match(r, seg_index, types, q_pred)]
    limit = len(matched)
    if q_limit is not None:
        limit = min(limit, q_limit)
    if row_limit is not None:
        limit = min(limit, row_limit)
    expected_rows = tuple(tuple(r[seg_index[c]] for c in out_cols) for r in matched[:limit])

    result = gw.execute(s, e, contract, text, 1)
    assert result.columns == out_cols
    assert result.rows == expected_rows
    assert result.truncated == (limit < len(matched))
    assert set(result.columns) <= set(grant_cols)

    # Serving never re-reads the store, and later writes stay invisible.
    assert len(extracts) == extracts_after_provision
    append_row(store, "ns.data", tuple(_rand_cell(rng, types[c]) for c in all_cols))
    again = gw.execute(s, e, contract, text, 2)
    assert again.rows == expected_rows
    assert len(extracts) == extracts_after_provision
    core.close()


def test_oracle_containment(verdict, tmp_path, monkeypatch):
    """Gateway output exactly equals an independent snapshot oracle."""
    with verdict("oracle containment"):
        started = time.monotonic()
        rng = random.Random(424242)
        extracts = count_extracts(monkeypatch)
        for i in range(600):
            _containment_trial(rng, tmp_path / f"trial-{i}", extracts)
        assert extracts == ["ns.data"] * 600
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"trials took {elapsed:.1f}s"


# --------------------------------------------------- two-contract isolation

_ISO_A = """
contract "iso-a" {
  principal "alice"
  purpose "isolation drill"
  expires_in 1h
  grant {
    source warehouse.metrics
    columns [owner, val]
    where owner = "alice"
  }
}
"""

_ISO_B = _ISO_A.replace('"iso-a"', '"iso-b"').replace("alice", "bob")


def test_two_contract_isolation(verdict, tmp_path):
    """A session under one contract can never surface another's rows."""
    with verdict("two-contract isolation"):
        schema = (("owner", TEXT), ("val", INT))
        rows = [("alice", i) for i in range(100)] + [("bob", 1000 + i) for i in range(100)]
        table = write_csv(tmp_path, "warehouse.metrics", schema, rows)
        core = make_core(tmp_path / "data", tables={"warehouse.metrics": table})

        ok(core, "submit_contract", {"text": _ISO_A})
        ok(core, "submit_contract", {"text": _ISO_B})
        token_a = ok(core, "activate_contract", {"contract_id": "iso-a"})["token"]
        token_b = ok(core, "activate_contract", {"contract_id": "iso-b"})["token"]
        assert token_a != token_b
        enclave_a = ok(core, "broker_enclave", {"contract_id": "iso-a"})["enclave_id"]
        enclave_b = ok(core, "broker_enclave", {"contract_id": "iso-b"})["enclave_id"]
        session_a = ok(
            core, "open_session", {"enclave_id": enclave_a, "token": token_a}
        )["session_id"]

        rng = random.Random(1717)
        statements = [
            "SELECT * FROM metrics",
            "SELECT val FROM metrics",
            "SELECT owner, val FROM metrics",
            "SHOW TABLES",
            "COPY INTO s3://x FROM metrics",
            "SELECT * FROM secrets",
            "DELETE FROM metrics",
            "42 = 42",
            'SELECT owner FROM metrics WHERE owner = "bob"',
            "SELECT val FROM metrics WHERE val >= 1000",
        ]
        rows_seen = 0
        for i in range(250):
            if rng.random() < 0.5:
                text = rng.choice(statements)
            elif rng.random() < 0.5:
                text = f"SELECT val FROM metrics WHERE val {rng.choice(COMPARE_OPS)} {rng.randint(-50, 1200)} LIMIT {rng.randint(1, 300)}"
            else:
                text = "".join(rng.choice(string.printable) for _ in range(rng.randint(1, 30)))
            resp = core.handle(
                {"op": "query", "id": i, "args": {"session_id": session_a, "text": text}}
            )
            if not resp["ok"]:
                continue
            result = resp["result"]
            if "rows" not in result:
                continue
            for row in result["rows"]:
                rows_seen += 1
                for cell in row:
                    assert cell != "bob"
                    assert not (isinstance(cell, int) and 1000 <= cell <= 1099), (text, row)
        assert rows_seen > 0

        # Bob's slice really is reachable, just not from Alice's side.
        session_b = ok(
            core, "open_session", {"enclave_id": enclave_b, "token": token_b}
        )["session_id"]
        out = ok(core, "query", {"session_id": session_b, "text": "SELECT val FROM metrics"})
        assert {v for (v,) in out["rows"]} == {1000 + i for i in range(100)}

        # And Alice's token opens nothing on Bob's enclave.
        code = fail_code(core, "open_session", {"enclave_id": enclave_b, "token": token_a})
        assert code == "BadToken"


# -------------------------------------------------------- temporal soundness


def test_temporal_soundness(verdict, tmp_path):
    """ttl=60: alive through second 59, done at 60, zero grants after sweep."""
    with verdict("temporal soundness"):
        core = make_core(tmp_path)
        ok(core, "submit_contract", {"text": C1_TEXT.replace("3600s", "60s")})
        activated = ok(core, "activate_contract", {"contract_id": "c1"})
        assert activated["expires_at"] == 60
        enclave_id = ok(core, "broker_enclave", {"contract_id": "c1"})["enclave_id"]
        session_id = ok(
            core, "open_session", {"enclave_id": enclave_id, "token": activated["token"]}
        )["session_id"]

        ok(core, "tick", {"seconds": 59})
        out = ok(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})
        assert len(out["rows"]) == 2

        ok(core, "tick", {"seconds": 1})
        swept = ok(core, "sweep")
        assert swept["expired"] == ["c1"]
        assert swept["expired_enclaves"] == [enclave_id]
        code = fail_code(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})
        assert code == "ContractExpired"
        assert live_grants(core) == []


# ---------------------------------------------------- audit tamper evidence


def _line_index_by_byte(raw: bytes) -> list[int]:
    idx, cur = [], 0
    for b in raw:
        idx.append(cur)
        if b == 0x0A:
            cur += 1
    return idx


def test_audit_tamper_evidence(verdict, tmp_path):
    """Every mutation, deletion, and reorder is pinned to its first bad seq."""
    with verdict("audit tamper evidence"):
        source = tmp_path / "ledger.log"
        ledger = AuditLedger(str(source))
        rng = random.Random(5)
        for i in range(50):
            kind = audit_mod.KINDS[i % len(audit_mod.KINDS)]
            ledger.append(i, f"actor-{i % 7}", kind, {"n": i, "blob": "x" * rng.randint(0, 20)})
        ledger.close()
        raw = source.read_bytes()
        assert audit_mod.verify_file(str(source)) is None

        target = tmp_path / "tampered.log"
        line_idx = _line_index_by_byte(raw)

        mutations = 0
        while mutations < 100:
            pos = rng.randrange(len(raw))
            repl = rng.randrange(256)
            if raw[pos] == 0x0A or repl == raw[pos] or repl == 0x0A:
                continue
            target.write_bytes(raw[:pos] + bytes([repl]) + raw[pos + 1 :])
            assert audit_mod.verify_file(str(target)) == line_idx[pos], pos
            mutations += 1

        lines = raw.decode("utf-8").splitlines()
        assert len(lines) == 50
        for _ in range(20):
            i = rng.randrange(len(lines) - 1)  # dropping the tail is truncation, not tamper
            kept = lines[:i] + lines[i + 1 :]
            target.write_text("\n".join(kept) + "\n", encoding="utf-8")
            assert audit_mod.verify_file(str(target)) == i

        for _ in range(20):
            i, j = sorted(rng.sample(range(len(lines)), 2))
            swapped = list(lines)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            target.write_text("\n".join(swapped) + "\n", encoding="utf-8")
            assert audit_mod.verify_file(str(target)) == i

        # A clean prefix stays verifiable: cutting the tail is out of scope
        # for tamper evidence by construction.
        for k in (1, 5, 49):
            target.write_text("\n".join(lines[:-k]) + "\n", encoding="utf-8")
            assert audit_mod.verify_file(str(target)) is None

        # Total mediation on a live broker: the ledger sees every statement.
        core = make_core(tmp_path / "broker")
        ok(core, "submit_contract", {"text": C1_TEXT})
        token = ok(core, "activate_contract", {"contract_id": "c1"})["token"]
        enclave_id = ok(core, "broker_enclave", {"contract_id": "c1"})["enclave_id"]
        session_id = ok(
            core, "open_session", {"enclave_id": enclave_id, "token": token}
        )["session_id"]
        statements = [
            "SHOW TABLES",
            "SELECT * FROM orders",
            "COPY INTO s3://x FROM orders",
            "garbage ((",
            "SELECT customer FROM orders",
        ]
        for text in statements:
            core.handle({"op": "query", "id": 1, "args": {"session_id": session_id, "text": text}})
        logged = [
            e.payload["statement"]
            for e in core.ledger.events()
            if e.kind in (audit_mod.QUERY_EXECUTED, audit_mod.QUERY_DENIED)
        ]
        assert logged == statements


# ------------------------------------------------------- break-glass quorum

_BG_TEMPLATE = """
contract "bg-sev1" {
  principal "alice"
  purpose "sev1 incident"
  expires_in 600s
  grant {
    source warehouse.orders
    columns *
  }
}
"""


def test_break_glass_quorum(verdict, tmp_path):
    """Two distinct approvals, loud activation, automatic teardown."""
    with verdict("break-glass quorum"):
        started = time.monotonic()
        core = make_core(tmp_path, bg_accounts=("alice", "bob", "carol"))
        rid = ok(
            core,
            "bg_request",
            {"account": "alice", "template": _BG_TEMPLATE, "justification": "db down"},
        )["request_id"]

        assert fail_code(core, "bg_approve", {"request_id": rid, "approver": "alice"}) == "SelfApproval"
        first = ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
        assert first["status"] == "Pending"
        assert fail_code(core, "bg_approve", {"request_id": rid, "approver": "bob"}) == "DuplicateApproval"

        final = ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})
        assert final["status"] == "Activated"
        assert final["expires_at"] == 900
        assert core.enclaves[final["enclave_id"]].state == "Serving"
        alerts = ok(core, "alerts", {"rule": "BreakGlassActivated"})["alerts"]
        assert len(alerts) == 1 and alerts[0]["severity"] == "Critical"
        kinds = [e.kind for e in core.ledger.events()]
        assert kinds.count(audit_mod.BREAK_GLASS_APPROVED) == 2
        assert audit_mod.BREAK_GLASS_ACTIVATED in kinds

        session_id = ok(
            core, "open_session", {"enclave_id": final["enclave_id"], "token": final["token"]}
        )["session_id"]
        assert len(ok(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})["rows"]) == 3

        ok(core, "tick", {"seconds": 901})
        swept = ok(core, "sweep")
        assert swept["bg_auto_revoked"] == [rid]
        assert core.break_glass.requests[rid].status == "AutoRevoked"
        e = core.enclaves[final["enclave_id"]]
        assert e.state == "Expired"
        assert fold_transitions(core)[e.enclave_id][-1]["cause"] == CAUSE_BREAK_GLASS_AUTO
        code = fail_code(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})
        assert code == "ContractExpired"
        assert live_grants(core) == []
        elapsed = time.monotonic() - started
        assert elapsed < 5, f"flow took {elapsed:.1f}s"


# ----------------------------------------------------------- incident replay


def test_incident_replay(verdict, tmp_path):
    """The classic probe: enumerate, dump, exfiltrate; watched at every step."""
    with verdict("incident replay"):
        core = make_core(tmp_path / "data")
        srv = BrokerServer(core, str(tmp_path / "replay.sock")).start()
        try:
            env = {k: v for k, v in os.environ.items() if k != "ENCLAVE_BROKER_ENDPOINT"}
            contract_file = tmp_path / "c1.contract"
            contract_file.write_text(C1_TEXT, encoding="utf-8")

            def cli(*argv, expect=0):
                proc = subprocess.run(
                    [sys.executable, "-m", "enclave_broker.cli", "--endpoint", srv.endpoint, *argv],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=60,
                )
                assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
                return proc.stdout

            cli("contract", "submit", str(contract_file))
            token = json.loads(cli("--json", "contract", "activate", "c1"))["token"]
            enclave_id = json.loads(cli("--json", "enclave", "broker", "c1"))["enclave_id"]
            session_id = json.loads(
                cli("--json", "--token", token, "session", "open", enclave_id)
            )["session_id"]

            cli("query", session_id, "SHOW TABLES")
            cli("query", session_id, "SELECT * FROM orders")
            out = cli("query", session_id, "COPY INTO s3://dump FROM orders", expect=1)
            assert out.strip() == "StatementForbidden"

            alerts = json.loads(cli("--json", "alerts"))["alerts"]
            assert [(a["rule"], a["severity"]) for a in alerts] == [
                ("EnumerationPattern", "High"),
                ("ExfiltrationAttempt", "Critical"),
            ]
            statements = [
                e.payload["statement"]
                for e in core.ledger.events()
                if e.kind in (audit_mod.QUERY_EXECUTED, audit_mod.QUERY_DENIED)
            ]
            assert statements == [
                "SHOW TABLES",
                "SELECT * FROM orders",
                "COPY INTO s3://dump FROM orders",
            ]
        finally:
            srv.stop()


# --------------------------------------------------------- parser round-trips

_NAME_TAIL = string.ascii_lowercase + string.digits + "_"
_TEXT_POOL = string.ascii_letters + string.digits + " .,:;!?#$%&/()'" + '"\\\n\t\r'


def _rt_ident(rng):
    while True:
        name = rng.choice(string.ascii_lowercase) + "".join(
            rng.choice(_NAME_TAIL) for _ in range(rng.randint(0, 7))
        )
        if name not in KEYWORDS and name.lower() not in RESERVED:
            return name


def _rt_text(rng, min_len=0):
    return "".join(rng.choice(_TEXT_POOL) for _ in range(rng.randint(min_len, 12)))


def _rt_literal(rng):
    k = rng.randrange(4)
    if k == 0:
        return Literal.integer(rng.randint(-(10**6), 10**6))
    if k == 1:
        return Literal.real(rng.randint(-16 * 10**5, 16 * 10**5) / 16)
    if k == 2:
        return Literal.text(_rt_text(rng))
    return Literal.date(days_to_date(rng.randint(0, 36500)))


def _rt_predicate(rng):
    return Predicate(
        tuple(
            Comparison(_rt_ident(rng), rng.choice(COMPARE_OPS), _rt_literal(rng))
            for _ in range(rng.randint(1, 2))
        )
    )


def _rt_contract(rng):
    grants = []
    for _ in range(rng.randint(1, 3)):
        source = f"{_rt_ident(rng)}.{_rt_ident(rng)}"
        columns = (
            None
            if rng.random() < 0.25
            else tuple(dict.fromkeys(_rt_ident(rng) for _ in range(rng.randint(1, 4))))
        )
        predicate = _rt_predicate(rng) if rng.random() < 0.6 else None
        row_limit = rng.choice((None, None, rng.randint(1, 10**6)))
        grants.append(Grant(source, columns, predicate, row_limit))
    return DataContract(
        contract_id=_rt_text(rng, min_len=1),
        principal=_rt_text(rng, min_len=1),
        purpose=_rt_text(rng, min_len=1),
        grants=tuple(grants),
        ttl=rng.randint(1, 10**7),
    )


def _rt_query_text(rng):
    roll = rng.random()
    if roll < 0.12:
        return "SHOW TABLES"
    if roll < 0.3:
        raw = "".join(
            rng.choice(string.ascii_letters + string.digits + ":/._-@#?&=%")
            for _ in range(rng.randint(1, 24))
        )
        return f"COPY INTO {raw}"
    columns = (
        None
        if rng.random() < 0.3
        else tuple(dict.fromkeys(_rt_ident(rng) for _ in range(rng.randint(1, 4))))
    )
    predicate = _rt_predicate(rng) if rng.random() < 0.5 else None
    limit = rng.choice((None, None, rng.randint(1, 10**6)))
    parts = ["SELECT", "*" if columns is None else ", ".join(columns), "FROM", _rt_ident(rng)]
    if predicate is not None:
        parts.append("WHERE")
        parts.append(
            " AND ".join(
                f"{c.column} {c.op} {_literal_text(c.literal)}" for c in predicate.conjuncts
            )
        )
    if limit is not None:
        parts.append(f"LIMIT {limit}")
    return " ".join(parts)


_BAD_CONTRACTS = (
    "",
    "contract",
    'contract "x"',
    'contract "x" {',
    'contract 42 { principal "p" }',
    'contract "x" { principal "p" purpose "q" expires_in 60s }',
    'contract "x" { principal "p" purpose "q" expires_in 60s grant { source t columns * } }',
    'contract "x" { principal "p" purpose "q" expires_in 0s grant { source a.b columns * } }',
    'contract "x" { principal "p" purpose "q" expires_in 60w grant { source a.b columns * } }',
    'contract "x" { principal "p" purpose "q" expires_in 60s grant { source a.b columns [] } }',
    'contract "x" { principal "p" purpose "q" expires_in 60s grant { source a.b columns [c, c] } }',
    'contract "x" { principal "p" purpose "q" expires_in 60s grant { source a.b columns * where c ! 1 } }',
    'contract "x" { principal "p" purpose "q" expires_in 60s grant { source a.b columns * row_limit 0 } }',
    'contract "x" { principal "p" purpose "q" expires_in 60s grant { source a.b columns * } } trailing',
    'contract "x" { principal "p" purpose "q" expires_in 60s grant { source a.b columns * where c = 2025-13-40 } }',
    'contract "\\q" { principal "p" purpose "q" expires_in 60s grant { source a.b columns * } }',
)

_BAD_QUERIES = (
    "",
    "   ",
    "SELECT",
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a, FROM t",
    "SELECT a FROM t WHERE",
    "SELECT a FROM t WHERE b ? 1",
    "SELECT a FROM t LIMIT 0",
    "SELECT a FROM t LIMIT -3",
    "SELECT a FROM t trailing",
    "SELECT select FROM t",
    "SELECT a FROM from",
    "SHOW",
    "SHOW TABLES now",
    "COPY INTO",
    "COPY INTO    ",
    "COPY INTO x\nSELECT 1",
    "DROP TABLE t",
    'SELECT a FROM t WHERE b = "unterminated',
)


def _assert_positioned_parse_error(fn, text):
    try:
        fn(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.column >= 1
        return True
    return False


def test_parser_round_trips(verdict):
    """print then parse is the identity; mangled input fails with a position."""
    with verdict("parser round-trips"):
        rng = random.Random(90125)
        for _ in range(1000):
            c = _rt_contract(rng)
            assert parse_contract(print_contract(c)) == c
        for _ in range(1000):
            text = _rt_query_text(rng)
            ast = parse_query(text)
            assert parse_query(print_query(ast)) == ast

        for bad in _BAD_CONTRACTS:
            assert _assert_positioned_parse_error(parse_contract, bad), bad
        for bad in _BAD_QUERIES:
            assert _assert_positioned_parse_error(parse_query, bad), bad

        # Mangle valid texts: every failure is a positioned ParseError,
        # and nothing else ever escapes.
        base_contract = print_contract(_rt_contract(rng))
        base_query = "SELECT a, b FROM t WHERE a >= 3 AND b != \"x\" LIMIT 7"
        for base, fn in ((base_contract, parse_contract), (base_query, parse_query)):
            for _ in range(150):
                cut = rng.randrange(len(base))
                _assert_positioned_parse_error(fn, base[:cut])
                pos = rng.randrange(len(base))
                junk = rng.choice("~`^|;?@!{}[]().*-=<>\"\\")
                _assert_positioned_parse_error(fn, base[:pos] + junk + base[pos:])
