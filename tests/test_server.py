"""The NDJSON endpoint: one request line in, one response line out."""

from __future__ import annotations

import json
import operator
import os
import socket
import stat
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclave_broker.broker import BrokerConfig
from enclave_broker.canonical import EncodedRows, canonical_json
from enclave_broker.lexer import escape_string
from enclave_broker.model import DATE, INT, REAL, TEXT, days_to_date
from enclave_broker import server as server_module
from enclave_broker.server import BrokerServer, reply_line

from conftest import C1_TEXT, make_core, write_csv


@pytest.fixture
def server(tmp_path):
    srv = BrokerServer(make_core(tmp_path), str(tmp_path / "b.sock")).start()
    yield srv
    srv.stop()


class Conn:
    """A blocking NDJSON client for one connection."""

    def __init__(self, endpoint: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(endpoint)
        self.sock.settimeout(10)  # a dead server thread fails the test, not hangs it
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")
        self.n = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.reader.close()
        self.sock.close()

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def read_line(self) -> str:
        return self.reader.readline()

    def call(self, op, args=None, token=None):
        self.n += 1
        request = {"op": op, "id": self.n}
        if args is not None:
            request["args"] = args
        if token is not None:
            request["token"] = token
        self.send_raw((json.dumps(request) + "\n").encode("utf-8"))
        response = json.loads(self.read_line())
        assert response["id"] == self.n
        return response


def test_request_response_round_trip(server):
    with Conn(server.endpoint) as conn:
        resp = conn.call("sweep")
        assert resp["ok"] is True
        assert resp["result"] == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": []}


def test_malformed_json_line_keeps_stream_alive(server):
    with Conn(server.endpoint) as conn:
        conn.send_raw(b"this is not json\n")
        bad = json.loads(conn.read_line())
        assert bad["id"] is None
        assert bad["ok"] is False
        assert bad["error"]["code"] == "BadRequest"
        # Same connection, still serving.
        assert conn.call("sweep")["ok"] is True


def test_undecodable_lines_keep_stream_alive(server):
    # Not UTF-8, an integer with more digits than json.loads will read,
    # and arrays nested deeper than its recursion limit.
    lines = (
        b"\xff\xfe\n",
        b'{"op": "tick", "id": ' + b"1" * 5000 + b"}\n",
        b"[" * 100000 + b"\n",
    )
    with Conn(server.endpoint) as conn:
        for line in lines:
            conn.send_raw(line)
            bad = json.loads(conn.read_line())
            assert bad["id"] is None
            assert bad["error"]["code"] == "BadRequest"
        assert conn.call("sweep")["ok"] is True


def test_over_long_lines_get_bad_request_and_the_connection_goes_on(server, monkeypatch):
    monkeypatch.setattr(server_module, "_MAX_LINE", 64)
    tick = b'{"op": "tick", "id": 1, "args": {"seconds": 5}}'
    with Conn(server.endpoint) as conn:
        # One byte over; valid JSON cut into pieces; blank at first, then
        # a request further on: each is the one line it is, refused whole.
        for line in (b"x" * 65, tick + b" " * 300, b" " * 200 + tick):
            conn.send_raw(line + b"\n")
            bad = json.loads(conn.read_line())
            assert bad["id"] is None
            assert bad["error"]["code"] == "BadRequest"
        # Exactly the cap before the newline is a line like any other.
        conn.send_raw(tick + b" " * (64 - len(tick)) + b"\n")
        assert json.loads(conn.read_line())["result"] == {"now": 5}
        assert conn.call("sweep")["ok"] is True
        # An over-long last line with no newline is answered too.
        conn.send_raw(b"y" * 100)
        conn.sock.shutdown(socket.SHUT_WR)
        assert json.loads(conn.read_line())["error"]["code"] == "BadRequest"
        assert conn.read_line() == ""


def test_blank_lines_are_skipped(server):
    with Conn(server.endpoint) as conn:
        conn.send_raw(b"\n   \n")
        assert conn.call("tick", {"seconds": 5})["result"] == {"now": 5}


def test_full_flow_over_one_connection(server):
    with Conn(server.endpoint) as conn:
        assert conn.call("submit_contract", {"text": C1_TEXT})["ok"]
        token = conn.call("activate_contract", {"contract_id": "c1"})["result"]["token"]
        enclave_id = conn.call("broker_enclave", {"contract_id": "c1"})["result"]["enclave_id"]
        opened = conn.call("open_session", {"enclave_id": enclave_id}, token=token)
        session_id = opened["result"]["session_id"]
        out = conn.call("query", {"session_id": session_id, "text": "SELECT * FROM orders"})
        assert len(out["result"]["rows"]) == 2
        denied = conn.call("query", {"session_id": session_id, "text": "COPY INTO s3://x FROM orders"})
        assert denied["ok"] is False
        assert denied["error"]["code"] == "StatementForbidden"
        assert conn.call("close_session", {"session_id": session_id})["ok"]


def test_token_with_lone_surrogate_is_a_bad_token(server):
    with Conn(server.endpoint) as conn:
        assert conn.call("submit_contract", {"text": C1_TEXT})["ok"]
        assert conn.call("activate_contract", {"contract_id": "c1"})["ok"]
        enclave_id = conn.call("broker_enclave", {"contract_id": "c1"})["result"]["enclave_id"]
        # json.dumps escapes the lone surrogate as \ud800, which json.loads accepts.
        opened = conn.call("open_session", {"enclave_id": enclave_id, "token": "tok\ud800"})
        assert opened["ok"] is False
        assert opened["error"]["code"] == "BadToken"


def test_lone_surrogates_get_bad_request_and_the_connection_stays_open(server):
    with Conn(server.endpoint) as conn:
        conn.send_raw(b'{"op": "sweep", "id": "\\ud800"}\n')
        response = json.loads(conn.read_line())
        assert response["id"] is None
        assert response["error"]["code"] == "BadRequest"
        refused = conn.call("submit_contract", {"text": C1_TEXT.replace("quarterly", "\ud800")})
        assert refused["error"]["code"] == "BadRequest"
        assert "text" in refused["error"]["message"]
        assert conn.call("submit_contract", {"text": C1_TEXT})["ok"]


_DATED_CSV = (
    "id,label,score,d\n"
    "INT,TEXT,REAL,DATE\n"
    "1,first,1.5,0001-01-01\n"
    "2,leap, -0.25 , 2024-02-29 \n"
    '3,"a, b",3,1970-01-01\n'
    "4,last,1e3,9999-12-31\n"
    "5,dup,2.5,2024-02-29\n"
)
_DATED_CONTRACT = """
contract "cd" {
  principal "p"
  purpose "dates on the wire"
  expires_in 1h
  grant {
    source ns.dated
    columns [id, label, score, d]
  }
}
"""
# Reply lines recorded from the broker when it still held DATE cells as
# day counts and rewrote them to ISO text per row in the result.
_DATED_REPLIES = (
    (
        "SELECT * FROM dated",
        '{"id":5,"ok":true,"result":{"columns":["id","label","score","d"],"rows":[[1,"first",1.5,"0001-01-01"],'
        '[2,"leap",-0.25,"2024-02-29"],[3,"a, b",3.0,"1970-01-01"],[4,"last",1000.0,"9999-12-31"],'
        '[5,"dup",2.5,"2024-02-29"]],"truncated":false}}\n',
    ),
    (
        "SELECT d, id FROM dated WHERE d >= 1970-01-01 LIMIT 2",
        '{"id":6,"ok":true,"result":{"columns":["d","id"],"rows":[["2024-02-29",2],["1970-01-01",3]],"truncated":true}}\n',
    ),
    (
        "SELECT * FROM dated WHERE d > 19000",
        '{"id":7,"ok":true,"result":{"columns":["id","label","score","d"],"rows":[[2,"leap",-0.25,"2024-02-29"],'
        '[4,"last",1000.0,"9999-12-31"],[5,"dup",2.5,"2024-02-29"]],"truncated":false}}\n',
    ),
)


def test_date_results_keep_their_wire_bytes(tmp_path):
    table = tmp_path / "dated.csv"
    table.write_text(_DATED_CSV, encoding="utf-8")
    core = make_core(tmp_path / "data", tables={"ns.dated": str(table)})
    srv = BrokerServer(core, str(tmp_path / "d.sock")).start()
    try:
        with Conn(srv.endpoint) as conn:
            assert conn.call("submit_contract", {"text": _DATED_CONTRACT})["ok"]
            token = conn.call("activate_contract", {"contract_id": "cd"})["result"]["token"]
            enclave_id = conn.call("broker_enclave", {"contract_id": "cd"})["result"]["enclave_id"]
            session_id = conn.call("open_session", {"enclave_id": enclave_id}, token=token)["result"]["session_id"]
            for text, reply in _DATED_REPLIES:
                conn.n += 1
                request = {"op": "query", "id": conn.n, "args": {"session_id": session_id, "text": text}}
                conn.send_raw((json.dumps(request) + "\n").encode("utf-8"))
                assert conn.read_line() == reply
    finally:
        srv.stop()


def test_connections_share_one_broker(server):
    with Conn(server.endpoint) as a, Conn(server.endpoint) as b:
        assert a.call("submit_contract", {"text": C1_TEXT})["ok"]
        assert b.call("activate_contract", {"contract_id": "c1"})["ok"]
        dup = a.call("submit_contract", {"text": C1_TEXT})
        assert dup["error"]["code"] == "DuplicateContract"


def test_responses_are_canonical_json_lines(server):
    with Conn(server.endpoint) as conn:
        conn.send_raw(b'{"op": "sweep", "id": 1}\n')
        line = conn.read_line()
        assert line.endswith("\n")
        body = line[:-1]
        assert body == canonical_json(json.loads(body))


def test_concurrent_connections(server):
    failures = []

    def hammer():
        try:
            with Conn(server.endpoint) as conn:
                for _ in range(20):
                    resp = conn.call("sweep")
                    assert resp["ok"] is True
        except Exception as exc:  # pragma: no cover - failure detail
            failures.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert failures == []


@pytest.mark.parametrize("req_id", [b"NaN", b"[Infinity]", b"-Infinity", b'{"k": [1, NaN]}', b'"\\ud800"'])
def test_an_id_that_cannot_be_echoed_is_refused_and_the_connection_goes_on(server, req_id):
    # JSON reads NaN, the infinities and a lone surrogate, but no reply
    # line can carry them: canonical JSON refuses NaN, UTF-8 the surrogate.
    with Conn(server.endpoint) as conn:
        conn.send_raw(b'{"op": "alerts", "id": ' + req_id + b"}\n")
        response = json.loads(conn.read_line())
        assert response["id"] is None
        assert response["error"]["code"] == "BadRequest"
        assert conn.call("sweep")["ok"]


def test_stop_removes_socket_and_start_reclaims_stale(tmp_path):
    path = str(tmp_path / "stale.sock")
    first = BrokerServer(make_core(tmp_path / "first"), path).start()
    first.stop()
    assert not os.path.exists(path)
    # A stale file left behind by a crash must not block the next start.
    open(path, "w").close()
    second = BrokerServer(make_core(tmp_path / "second"), path).start()
    try:
        with Conn(path) as conn:
            assert conn.call("sweep")["ok"]
    finally:
        second.stop()


def test_the_socket_is_owner_only_under_any_umask(tmp_path):
    path = str(tmp_path / "mode.sock")
    core = make_core(tmp_path)
    # Under umask 0, bind alone would leave the socket 0o777: any local
    # user could connect.
    old = os.umask(0)
    try:
        srv = BrokerServer(core, path).start()
    finally:
        os.umask(old)
    try:
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        with Conn(path) as conn:
            assert conn.call("sweep")["ok"]
    finally:
        srv.stop()


_HOSTILE = ("],[", '"q"', "back\\slash", "ctl\x01\x1f\t\n\r\x7f", "héllo", "日本", "\U0001f600", " ", "plain")
_HOSTILE_ROWS = [
    (i, _HOSTILE[i % len(_HOSTILE)], (-1) ** i * i * 0.5, days_to_date(19000 + i % 7)) for i in range(60)
]
_HOSTILE_CONTRACT = """
contract "ch" {
  principal "p"
  purpose "hostile text on the wire"
  expires_in 1h
  grant {
    source ns.hostile
    columns *
    row_limit 25
  }
}
"""
# (statement, output columns, the rows it keeps, its LIMIT), answered by
# plain Python over _HOSTILE_ROWS; the grant caps every answer at 25 rows.
_COLS = ("id", "label", "score", "d")
_HOSTILE_STATEMENTS = (
    ("SELECT * FROM hostile", _COLS, lambda r: True, None),
    ("SELECT * FROM hostile WHERE id >= 10 AND id < 20", _COLS, lambda r: 10 <= r[0] < 20, None),
    ('SELECT * FROM hostile WHERE label = "],["', _COLS, lambda r: r[1] == "],[", None),
    ("SELECT * FROM hostile WHERE score > 0 LIMIT 4", _COLS, lambda r: r[2] > 0, 4),
    ("SELECT * FROM hostile WHERE id > 1000", _COLS, lambda r: False, None),
    ("SELECT id, label, score, d FROM hostile WHERE id >= 30", _COLS, lambda r: r[0] >= 30, None),
    ("SELECT label, id FROM hostile WHERE score < 0 LIMIT 7", ("label", "id"), lambda r: r[2] < 0, 7),
    ("SELECT d FROM hostile", ("d",), lambda r: True, None),
)


def _oracle(columns, keep, limit) -> dict:
    matched = [r for r in _HOSTILE_ROWS if keep(r)]
    n = min([len(matched), 25] + ([limit] if limit is not None else []))
    picks = [_COLS.index(col) for col in columns]
    return {
        "columns": list(columns),
        "rows": [[r[i] for i in picks] for r in matched[:n]],
        "truncated": n < len(matched),
    }


def test_spliced_replies_are_the_canonical_bytes(tmp_path):
    table = write_csv(tmp_path, "ns.hostile", tuple(zip(_COLS, (INT, TEXT, REAL, DATE))), _HOSTILE_ROWS)
    core = make_core(tmp_path / "data", tables={"ns.hostile": table})
    srv = BrokerServer(core, str(tmp_path / "h.sock")).start()
    try:
        with Conn(srv.endpoint) as conn:
            assert conn.call("submit_contract", {"text": _HOSTILE_CONTRACT})["ok"]
            token = conn.call("activate_contract", {"contract_id": "ch"})["result"]["token"]
            enclave_id = conn.call("broker_enclave", {"contract_id": "ch"})["result"]["enclave_id"]
            session_id = conn.call("open_session", {"enclave_id": enclave_id}, token=token)["result"]["session_id"]
            raw = conn.sock.makefile("rb")
            # Ten rounds: the full-width answers send the segment's 60
            # rows within the first round, `d` within the third and
            # `label, id` within the ninth, so later rounds of each are
            # spliced from its own form.
            for _ in range(10):
                for text, columns, keep, limit in _HOSTILE_STATEMENTS:
                    conn.n += 1
                    request = {"op": "query", "id": conn.n, "args": {"session_id": session_id, "text": text}}
                    conn.send_raw((json.dumps(request) + "\n").encode("utf-8"))
                    want = {"id": conn.n, "ok": True, "result": _oracle(columns, keep, limit)}
                    assert raw.readline() == canonical_json(want).encode("utf-8") + b"\n", text
            raw.close()
        forms = core.enclaves[enclave_id].segments[0].wire
        assert set(forms) == {(0, 1, 2, 3), (1, 0), (3,)}
        assert all(form.buf is not None for form in forms.values())
    finally:
        srv.stop()


def test_reply_line_splices_encoded_rows_as_canonical_json():
    rows = ((1, "],[\"rows\":[]"), (2, "é"))
    wire = b",".join(canonical_json(row).encode("utf-8") for row in rows)
    for req_id in (7, "x", {"rows": []}, ['"rows":[]']):
        for encoded, plain in ((EncodedRows(wire, len(rows)), rows), (EncodedRows(b"", 0), ())):
            response = {"id": req_id, "ok": True, "result": {"columns": ["a", "b"], "rows": encoded, "truncated": True}}
            want = canonical_json({**response, "result": {**response["result"], "rows": plain}})
            assert reply_line(response) == want.encode("utf-8") + b"\n"
            # In process, the same line decoded from the encoding.
            assert canonical_json(response) == want


# ---- every reply against an oracle computed from the source table ----

_BIG = 10**4299  # 4300 digits, the most `int` reads from text
_EDGE_COLS = (("id", INT), ("big", INT), ("score", REAL), ("label", TEXT), ("d", DATE))
_EDGE_INTS = (0, -1, 2**63, -(2**63) - 1, _BIG, -_BIG)
_EDGE_REALS = (-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, -1.5, 0.1, 1e-07, -2.5e-300)
_EDGE_TEXTS = (
    "plain", '"q"', "back\\slash", "ctl\x01\x1f\t\n\r\x7f", "\u2028line\u2029", "\U0001f600 non-BMP",
    "],[", '"rows":[]', "", " ", "日本", "{}",
)
_EDGE_ROWS = [
    (
        i,
        _EDGE_INTS[i % len(_EDGE_INTS)],
        _EDGE_REALS[i % len(_EDGE_REALS)],
        _EDGE_TEXTS[i % len(_EDGE_TEXTS)],
        days_to_date(19000 + (i * 7) % 11),
    )
    for i in range(48)
]
_EDGE_ROW_LIMITS = (None, 1, 9, 30)
_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
# A column's literals: (query text, the value the oracle compares cells with).
_EDGE_LITERALS = {
    "id": st.integers(-2, 50).map(lambda n: (str(n), n)),
    "big": st.sampled_from((0, -1, 7, -(10**30), 10**30)).map(lambda n: (str(n), n)),
    "score": st.sampled_from(("0.0", "-1.5", "0.1", "100.25", "0", "1")).map(lambda t: (t, float(t))),
    "label": st.sampled_from(_EDGE_TEXTS).map(lambda t: (escape_string(t), t)),
    "d": st.integers(18999, 19011).map(lambda n: (days_to_date(n), days_to_date(n))),
}
_ORACLE_JSON = dict(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def _edge_contract(i: int, row_limit) -> str:
    cap = "" if row_limit is None else f"row_limit {row_limit}"
    return f"""
contract "edge{i}" {{
  principal "p{i}"
  purpose "every cell type on the wire"
  expires_in 1h
  grant {{
    source ns.edge
    columns *
    {cap}
  }}
}}
"""


def test_replies_match_an_oracle_for_any_projection_predicate_and_cap(tmp_path):
    table = write_csv(tmp_path, "ns.edge", _EDGE_COLS, _EDGE_ROWS)
    core = make_core(tmp_path / "data", tables={"ns.edge": table})

    def ok(op, args, token=None):
        response = core.handle({"op": op, "id": 1, "args": args, **({"token": token} if token else {})})
        assert response["ok"], response
        return response["result"]

    sessions = []
    for i, row_limit in enumerate(_EDGE_ROW_LIMITS):
        ok("submit_contract", {"text": _edge_contract(i, row_limit)})
        token = ok("activate_contract", {"contract_id": f"edge{i}"})["token"]
        enclave_id = ok("broker_enclave", {"contract_id": f"edge{i}"})["enclave_id"]
        sessions.append(ok("open_session", {"enclave_id": enclave_id}, token)["session_id"])
    names = [col for col, _ in _EDGE_COLS]

    @settings(max_examples=150)
    @given(st.data())
    def check(data):
        which = data.draw(st.integers(0, len(_EDGE_ROW_LIMITS) - 1))
        star = data.draw(st.booleans())
        picks = list(range(len(names))) if star else data.draw(st.lists(st.integers(0, len(names) - 1), min_size=1, max_size=7))
        terms = []
        for _ in range(data.draw(st.integers(0, 2))):
            column = data.draw(st.sampled_from(names))
            op = data.draw(st.sampled_from(sorted(_OPS)))
            text, value = data.draw(_EDGE_LITERALS[column])
            terms.append((names.index(column), _OPS[op], value, f"{column} {op} {text}"))
        limit = data.draw(st.none() | st.integers(1, 60))
        statement = f"SELECT {'*' if star else ', '.join(names[i] for i in picks)} FROM edge"
        if terms:
            statement += " WHERE " + " AND ".join(t[3] for t in terms)
        if limit is not None:
            statement += f" LIMIT {limit}"

        matched = [r for r in _EDGE_ROWS if all(op(r[i], value) for i, op, value, _ in terms)]
        cap = min([n for n in (limit, _EDGE_ROW_LIMITS[which]) if n is not None], default=len(matched))
        want = {
            "id": 1,
            "ok": True,
            "result": {
                "columns": [names[i] for i in picks],
                "rows": [[r[i] for i in picks] for r in matched[:cap]],
                "truncated": len(matched) > cap,
            },
        }
        want_line = json.dumps(want, **_ORACLE_JSON).encode("utf-8")
        response = core.handle({"op": "query", "id": 1, "args": {"session_id": sessions[which], "text": statement}})
        assert reply_line(response) == want_line + b"\n", statement
        assert canonical_json(response).encode("utf-8") == want_line, statement

    check()


def test_daemon_defaults_are_the_config_defaults(tmp_path, monkeypatch, capsys):
    configs = []

    class Started:
        def wait(self):
            pass

        def stop(self):
            pass

    def fake_serve(config, endpoint):
        configs.append(config)
        return Started()

    monkeypatch.setattr(server_module, "serve", fake_serve)
    assert server_module.main(["--endpoint", str(tmp_path / "b.sock"), "--data-dir", str(tmp_path)]) == 0
    assert configs == [BrokerConfig(data_dir=str(tmp_path))]
    assert capsys.readouterr().out == f"listening on {tmp_path / 'b.sock'}\n"
