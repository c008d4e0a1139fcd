"""CLI behavior: exit codes, rendering, --json, flag placement."""

from __future__ import annotations

import json

import pytest

from enclave_broker import cli, gateway
from enclave_broker.canonical import canonical_json
from enclave_broker.errors import BrokerError
from enclave_broker.server import BrokerServer

from conftest import C1_TEXT, ORDERS_CSV, make_core

BG_TEMPLATE = """
contract "bg-cli-1" {
  principal "alice"
  purpose "cli drill"
  expires_in 300s
  grant {
    source warehouse.orders
    columns [order_id]
  }
}
"""


@pytest.fixture(autouse=True)
def no_ambient_endpoint(monkeypatch):
    monkeypatch.delenv("ENCLAVE_BROKER_ENDPOINT", raising=False)


@pytest.fixture
def endpoint(tmp_path):
    srv = BrokerServer(make_core(tmp_path / "data", bg_accounts=("alice", "bob", "carol")), str(tmp_path / "b.sock"))
    srv.start()
    yield srv.endpoint
    srv.stop()


@pytest.fixture
def contract_file(tmp_path):
    path = tmp_path / "c1.contract"
    path.write_text(C1_TEXT, encoding="utf-8")
    return str(path)


def run(capsys, argv, expect=0):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == expect, (code, out, err)
    return out, err


def activate_session(capsys, endpoint, contract_file):
    """submit + activate + broker + open; returns (token, enclave_id, session_id)."""
    run(capsys, ["--endpoint", endpoint, "contract", "submit", contract_file])
    out, _ = run(capsys, ["--endpoint", endpoint, "--json", "contract", "activate", "c1"])
    token = json.loads(out)["token"]
    out, _ = run(capsys, ["--endpoint", endpoint, "--json", "enclave", "broker", "c1"])
    enclave_id = json.loads(out)["enclave_id"]
    out, _ = run(capsys, ["--endpoint", endpoint, "--json", "--token", token, "session", "open", enclave_id])
    return token, enclave_id, json.loads(out)["session_id"]


# ---- exit codes ----


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["contract", "transmogrify"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_endpoint_exits_2(capsys):
    for argv in (["sweep"], ["audit", "verify"]):
        out, err = run(capsys, argv, expect=2)
        assert "endpoint" in err


def test_unreachable_broker_exits_3(capsys, tmp_path):
    out, err = run(capsys, ["--endpoint", str(tmp_path / "void.sock"), "sweep"], expect=3)
    assert "cannot reach broker" in err


def test_policy_denial_exits_1(capsys, endpoint):
    out, err = run(capsys, ["--endpoint", endpoint, "session", "close", "ses-nope"], expect=1)
    assert out.strip() == "UnknownEntity"
    assert "ses-nope" in err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_code_exits_by_rule():
    # Every code the broker can answer is a policy refusal (exit 1), but
    # for the two that are failures and exit 3, as BadRequest and
    # UnknownOp do. A new error class fails here until it is placed.
    own = {cls: vars(cls).get("code") for cls in _subclasses(BrokerError)}
    assert [cls for cls, code in own.items() if code is None] == [gateway.DenialError]
    deny = {value for name, value in vars(gateway).items() if name.startswith("DENY_")}
    codes = (set(own.values()) - {None}) | deny
    assert codes - cli.POLICY_CODES == {"StorageFailure", "BadConfig"}


# ---- offline lint ----


def test_lint_parses_offline(capsys, contract_file):
    out, _ = run(capsys, ["contract", "lint", contract_file])
    assert out.strip() == "ok: c1"


def test_lint_reports_parse_errors(capsys, tmp_path):
    bad = tmp_path / "bad.contract"
    bad.write_text('contract "x" {', encoding="utf-8")
    out, err = run(capsys, ["contract", "lint", str(bad)], expect=1)
    assert out.strip() == "ParseError"
    assert "line" in err


def test_lint_validates_against_tables(capsys, tmp_path, contract_file):
    csv = tmp_path / "orders.csv"
    csv.write_text(ORDERS_CSV, encoding="utf-8")
    out, _ = run(
        capsys,
        ["contract", "lint", contract_file, "--table", f"warehouse.orders={csv}"],
    )
    assert out.strip() == "ok: c1"

    ghost = tmp_path / "ghost.contract"
    ghost.write_text(C1_TEXT.replace("warehouse.orders", "warehouse.ghost"), encoding="utf-8")
    out, err = run(
        capsys,
        ["contract", "lint", str(ghost), "--table", f"warehouse.orders={csv}"],
        expect=1,
    )
    assert out.strip() == "ValidationFailed"
    assert "UnknownSource" in err


def test_lint_missing_file_exits_2(capsys):
    out, err = run(capsys, ["contract", "lint", "/nonexistent.contract"], expect=2)
    assert "cannot read" in err


@pytest.mark.parametrize(
    "data,code,message",
    [
        (b"order_id\nINT\nx\n", "TypeMismatch", "line 3 column order_id"),
        (b"a,b\nINT,TEXT\n1,\xff\n", "BadConfig", "not UTF-8"),
    ],
)
def test_lint_refuses_an_unloadable_table(capsys, tmp_path, contract_file, data, code, message):
    csv = tmp_path / "orders.csv"
    csv.write_bytes(data)
    out, err = run(
        capsys,
        ["contract", "lint", contract_file, "--table", f"warehouse.orders={csv}"],
        expect=1,
    )
    assert out.strip() == code
    assert message in err
    assert str(csv) in err


def test_lint_missing_table_exits_2(capsys, tmp_path, contract_file):
    ghost = tmp_path / "ghost.csv"
    out, err = run(capsys, ["contract", "lint", contract_file, "--table", f"warehouse.orders={ghost}"], expect=2)
    assert f"cannot read {ghost}" in err


# ---- online flow and rendering ----


def test_submit_activate_render(capsys, endpoint, contract_file):
    out, _ = run(capsys, ["--endpoint", endpoint, "contract", "submit", contract_file])
    assert out.strip() == "submitted c1 (Draft)"
    out, _ = run(capsys, ["--endpoint", endpoint, "contract", "activate", "c1"])
    assert out.startswith("activated c1; expires_at 3600; token ")


def test_query_rendering(capsys, endpoint, contract_file):
    token, enclave_id, session_id = activate_session(capsys, endpoint, contract_file)
    out, _ = run(
        capsys, ["--endpoint", endpoint, "query", session_id, "SELECT * FROM orders"]
    )
    lines = out.splitlines()
    assert lines[0] == "order_id, amount, created_at"
    assert lines[1] == "2\t250\t2025-01-15"
    assert lines[2] == "3\t75\t2025-02-01"
    out, _ = run(
        capsys,
        ["--endpoint", endpoint, "query", session_id, "SELECT order_id FROM orders LIMIT 1"],
    )
    assert out.splitlines()[-1] == "(truncated)"


def test_denied_query_exits_1_with_code_on_stdout(capsys, endpoint, contract_file):
    token, enclave_id, session_id = activate_session(capsys, endpoint, contract_file)
    out, err = run(
        capsys,
        ["--endpoint", endpoint, "query", session_id, "COPY INTO s3://x FROM orders"],
        expect=1,
    )
    assert out.strip() == "StatementForbidden"
    assert err.strip() != ""


def test_alerts_rendering(capsys, endpoint, contract_file):
    token, enclave_id, session_id = activate_session(capsys, endpoint, contract_file)
    out, _ = run(capsys, ["--endpoint", endpoint, "alerts"])
    assert out.strip() == "no alerts"
    run(capsys, ["--endpoint", endpoint, "query", session_id, "SHOW TABLES"])
    run(capsys, ["--endpoint", endpoint, "query", session_id, "SELECT * FROM orders"])
    out, _ = run(capsys, ["--endpoint", endpoint, "alerts"])
    assert "alert-0\tEnumerationPattern\tHigh" in out
    out, _ = run(capsys, ["--endpoint", endpoint, "alerts", "--rule", "ExfiltrationAttempt"])
    assert out.strip() == "no alerts"


def test_audit_verify_rendering(capsys, endpoint, contract_file):
    run(capsys, ["--endpoint", endpoint, "contract", "submit", contract_file])
    out, _ = run(capsys, ["--endpoint", endpoint, "audit", "verify"])
    assert out.strip() == "Ok (1 events)"
    out, _ = run(capsys, ["--endpoint", endpoint, "--json", "audit", "verify"])
    assert json.loads(out) == {"verified": True, "events": 1}


def test_audit_export_prints_json_lines(capsys, endpoint, contract_file):
    run(capsys, ["--endpoint", endpoint, "contract", "submit", contract_file])
    out, _ = run(capsys, ["--endpoint", endpoint, "audit", "export"])
    events = [json.loads(line) for line in out.splitlines()]
    assert events[0]["kind"] == "ContractSubmitted"
    assert events[0]["seq"] == 0


def test_clock_and_sweep_rendering(capsys, endpoint, contract_file):
    activate_session(capsys, endpoint, contract_file)
    out, _ = run(capsys, ["--endpoint", endpoint, "clock", "tick", "4000"])
    assert out.strip() == "now 4000"
    out, _ = run(capsys, ["--endpoint", endpoint, "sweep"])
    assert "expired contracts: c1" in out
    assert "break-glass auto-revoked: -" in out


def test_bg_flow_rendering(capsys, endpoint, tmp_path):
    template = tmp_path / "bg.contract"
    template.write_text(BG_TEMPLATE, encoding="utf-8")
    out, _ = run(
        capsys,
        ["--endpoint", endpoint, "bg", "request", str(template), "--account", "alice"],
    )
    assert "(Pending)" in out
    request_id = out.split()[1]
    out, _ = run(
        capsys, ["--endpoint", endpoint, "bg", "approve", request_id, "--approver", "bob"]
    )
    assert out.strip() == f"request {request_id} (Pending)"
    out, _ = run(
        capsys, ["--endpoint", endpoint, "bg", "approve", request_id, "--approver", "carol"]
    )
    assert f"request {request_id} (Activated); enclave " in out
    assert "; token " in out
    out, err = run(
        capsys,
        ["--endpoint", endpoint, "bg", "approve", request_id, "--approver", "dave"],
        expect=1,
    )
    assert out.strip() == "StateError"


def test_bg_deny_rendering(capsys, endpoint, tmp_path):
    template = tmp_path / "bg.contract"
    template.write_text(BG_TEMPLATE.replace("bg-cli-1", "bg-cli-2"), encoding="utf-8")
    out, _ = run(
        capsys,
        ["--endpoint", endpoint, "bg", "request", str(template), "--account", "alice"],
    )
    request_id = out.split()[1]
    out, _ = run(capsys, ["--endpoint", endpoint, "bg", "deny", request_id])
    assert out.strip() == f"request {request_id} (Denied)"


# ---- flags: placement, env, --json fidelity ----


def test_global_flags_work_before_and_after_subcommand(capsys, endpoint, contract_file):
    run(capsys, ["contract", "submit", contract_file, "--endpoint", endpoint])
    before, _ = run(capsys, ["--endpoint", endpoint, "--json", "contract", "activate", "c1"])
    run(capsys, ["--endpoint", endpoint, "contract", "revoke", "c1", "--reason", "drill"])
    # Same flags in trailing position parse identically.
    out, err = run(
        capsys, ["contract", "activate", "c1", "--endpoint", endpoint, "--json"], expect=1
    )
    assert json.loads(out)["code"] == "StateError"


def test_endpoint_from_environment(capsys, monkeypatch, endpoint, contract_file):
    monkeypatch.setenv("ENCLAVE_BROKER_ENDPOINT", endpoint)
    out, _ = run(capsys, ["contract", "submit", contract_file])
    assert out.strip() == "submitted c1 (Draft)"


def test_json_output_is_canonical(capsys, endpoint, contract_file):
    run(capsys, ["--endpoint", endpoint, "contract", "submit", contract_file])
    out, _ = run(capsys, ["--endpoint", endpoint, "--json", "contract", "activate", "c1"])
    assert out == canonical_json(json.loads(out)) + "\n"
    result = json.loads(out)
    assert result["expires_at"] == result["activated_at"] + 3600


# ---- golden: every leaf's request, output and exit code ----


def _ok(result):
    return {"id": "cli-1", "ok": True, "result": result}


def _err(code):
    return {"id": "cli-1", "ok": False, "error": {"code": code, "message": f"why {code}"}}


FILE_TEXT = "contract text\n"
_ALERT = {
    "alert_id": "alert-0",
    "rule": "R",
    "severity": "High",
    "session_id": "ses-1",
    "contract_id": "c1",
    "evidence": {},
    "timestamp": 7,
}
_NO_FILTERS = {"rule": None, "contract_id": None, "enclave_id": None, "since": None, "until": None}
_EVENT = {"seq": 0, "timestamp": 0, "actor": "op", "kind": "K", "payload": {"a": 1}, "prev_hash": "0", "hash": "1"}
_ACTIVATED = {
    "request_id": "bg-1",
    "status": "Activated",
    "approvals": ["bob", "carol"],
    "contract_id": "bg-c",
    "enclave_id": "enc-2",
    "expires_at": 900,
    "token": "tk",
}

# (argv after "--endpoint E", canned reply, request sent as (op, args, token)
# or None, text stdout, exit code). Every error reply's text form prints
# its code on stdout and its message on stderr; every other case leaves
# stderr empty except an unreadable file's. "{file}" is a readable file
# holding FILE_TEXT and "{missing}" a path that does not exist.
GOLDEN = {
    "submit": (
        ["contract", "submit", "{file}"],
        _ok({"contract_id": "c1", "status": "Draft"}),
        ("submit_contract", {"text": FILE_TEXT}, None),
        "submitted c1 (Draft)\n",
        0,
    ),
    "submit-denied": (
        ["contract", "submit", "{file}"],
        _err("ParseError"),
        ("submit_contract", {"text": FILE_TEXT}, None),
        "ParseError\n",
        1,
    ),
    "submit-unreadable": (["contract", "submit", "{missing}"], None, None, "", 2),
    "activate": (
        ["contract", "activate", "c1"],
        _ok({"contract_id": "c1", "status": "Active", "activated_at": 0, "expires_at": 3600, "token": "t0k"}),
        ("activate_contract", {"contract_id": "c1"}, None),
        "activated c1; expires_at 3600; token t0k\n",
        0,
    ),
    "revoke": (
        ["contract", "revoke", "c1"],
        _ok({"contract_id": "c1", "status": "Revoked", "revoked_enclaves": []}),
        ("revoke_contract", {"contract_id": "c1", "reason": ""}, None),
        "revoked c1\n",
        0,
    ),
    "revoke-reason": (
        ["contract", "revoke", "c1", "--reason", "done"],
        _ok({"contract_id": "c1", "status": "Revoked", "revoked_enclaves": ["enc-1"]}),
        ("revoke_contract", {"contract_id": "c1", "reason": "done"}, None),
        "revoked c1\n",
        0,
    ),
    "lint": (["contract", "lint", "{contract}"], None, None, "ok: c1\n", 0),
    "enclave": (
        ["enclave", "broker", "c1"],
        _ok({"enclave_id": "enc-1", "state": "Serving"}),
        ("broker_enclave", {"contract_id": "c1"}, None),
        "enclave enc-1 Serving\n",
        0,
    ),
    "enclave-failed": (
        ["enclave", "broker", "c1"],
        _err("StorageFailure"),
        ("broker_enclave", {"contract_id": "c1"}, None),
        "StorageFailure\n",
        3,
    ),
    "session-open": (
        ["--token", "t0k", "session", "open", "enc-1"],
        _ok({"session_id": "ses-1", "enclave_id": "enc-1"}),
        ("open_session", {"enclave_id": "enc-1"}, "t0k"),
        "session ses-1\n",
        0,
    ),
    "session-open-no-token": (
        ["session", "open", "enc-1"],
        _err("BadToken"),
        ("open_session", {"enclave_id": "enc-1"}, None),
        "BadToken\n",
        1,
    ),
    "session-close-token": (
        ["--token", "t0k", "session", "close", "ses-1"],
        _ok({"session_id": "ses-1", "closed": True}),
        ("close_session", {"session_id": "ses-1"}, None),
        "closed ses-1\n",
        0,
    ),
    "query": (
        ["query", "ses-1", "SELECT a, b FROM t"],
        _ok({"columns": ["a", "b"], "rows": [[1, "x"], [2.5, None]], "truncated": False}),
        ("query", {"session_id": "ses-1", "text": "SELECT a, b FROM t"}, None),
        "a, b\n1\tx\n2.5\tNone\n",
        0,
    ),
    "query-truncated": (
        ["query", "ses-1", "SELECT a FROM t LIMIT 1"],
        _ok({"columns": ["a"], "rows": [[1]], "truncated": True}),
        ("query", {"session_id": "ses-1", "text": "SELECT a FROM t LIMIT 1"}, None),
        "a\n1\n(truncated)\n",
        0,
    ),
    "query-denied": (
        ["query", "ses-1", "COPY INTO s3://x FROM t"],
        _err("StatementForbidden"),
        ("query", {"session_id": "ses-1", "text": "COPY INTO s3://x FROM t"}, None),
        "StatementForbidden\n",
        1,
    ),
    "alerts-none": (
        ["alerts"],
        _ok({"alerts": []}),
        ("alerts", _NO_FILTERS, None),
        "no alerts\n",
        0,
    ),
    "alerts-filtered": (
        ["alerts", "--rule", "R", "--contract", "c1", "--enclave", "enc-1", "--since", "5", "--until", "9"],
        _ok({"alerts": [_ALERT, {**_ALERT, "alert_id": "alert-1", "timestamp": 8}]}),
        ("alerts", {"rule": "R", "contract_id": "c1", "enclave_id": "enc-1", "since": 5, "until": 9}, None),
        "alert-0\tR\tHigh\tsession=ses-1\tcontract=c1\tt=7\nalert-1\tR\tHigh\tsession=ses-1\tcontract=c1\tt=8\n",
        0,
    ),
    "alerts-one-filter": (
        ["alerts", "--until", "9"],
        _ok({"alerts": []}),
        ("alerts", {**_NO_FILTERS, "until": 9}, None),
        "no alerts\n",
        0,
    ),
    "export": (
        ["audit", "export"],
        _ok({"events": [_EVENT, {**_EVENT, "seq": 1}]}),
        ("audit_export", {}, None),
        canonical_json(_EVENT) + "\n" + canonical_json({**_EVENT, "seq": 1}) + "\n",
        0,
    ),
    "export-empty": (["audit", "export"], _ok({"events": []}), ("audit_export", {}, None), "", 0),
    "verify": (
        ["--token", "t0k", "audit", "verify"],
        _ok({"verified": True, "events": 3}),
        ("audit_verify", {}, None),
        "Ok (3 events)\n",
        0,
    ),
    "verify-bad": (
        ["audit", "verify"],
        _ok({"verified": False, "first_bad_seq": 1, "events": 3}),
        ("audit_verify", {}, None),
        "FirstBadSeq: 1\n",
        1,
    ),
    "verify-failed": (
        ["audit", "verify"],
        _err("StorageFailure"),
        ("audit_verify", {}, None),
        "StorageFailure\n",
        3,
    ),
    "bg-request": (
        ["bg", "request", "{file}", "--account", "alice"],
        _ok({"request_id": "bg-1", "status": "Pending", "quorum": 2}),
        ("bg_request", {"account": "alice", "template": FILE_TEXT, "justification": ""}, None),
        "request bg-1 (Pending)\n",
        0,
    ),
    "bg-request-justified": (
        ["bg", "request", "{file}", "--account", "alice", "--justification", "fire"],
        _ok({"request_id": "bg-1", "status": "Pending", "quorum": 2}),
        ("bg_request", {"account": "alice", "template": FILE_TEXT, "justification": "fire"}, None),
        "request bg-1 (Pending)\n",
        0,
    ),
    "bg-request-unreadable": (["bg", "request", "{missing}", "--account", "alice"], None, None, "", 2),
    "bg-approve": (
        ["bg", "approve", "bg-1", "--approver", "bob"],
        _ok({"request_id": "bg-1", "status": "Pending", "approvals": ["bob"]}),
        ("bg_approve", {"request_id": "bg-1", "approver": "bob"}, None),
        "request bg-1 (Pending)\n",
        0,
    ),
    "bg-approve-activated": (
        ["bg", "approve", "bg-1", "--approver", "carol"],
        _ok(_ACTIVATED),
        ("bg_approve", {"request_id": "bg-1", "approver": "carol"}, None),
        "request bg-1 (Activated); enclave enc-2; token tk\n",
        0,
    ),
    "bg-deny": (
        ["bg", "deny", "bg-1"],
        _ok({"request_id": "bg-1", "status": "Denied"}),
        ("bg_deny", {"request_id": "bg-1"}, None),
        "request bg-1 (Denied)\n",
        0,
    ),
    "bg-deny-settled": (
        ["bg", "deny", "bg-1"],
        _err("StateError"),
        ("bg_deny", {"request_id": "bg-1"}, None),
        "StateError\n",
        1,
    ),
    "tick": (
        ["clock", "tick", "60"],
        _ok({"now": 60}),
        ("tick", {"seconds": 60}, None),
        "now 60\n",
        0,
    ),
    "sweep": (
        ["--token", "t0k", "sweep"],
        _ok({"expired": ["c1"], "expired_enclaves": [], "bg_auto_revoked": ["bg-1", "bg-2"]}),
        ("sweep", {}, None),
        "expired contracts: c1\nexpired enclaves: -\nbreak-glass auto-revoked: bg-1, bg-2\n",
        0,
    ),
    "sweep-unknown-op": (["sweep"], _err("UnknownOp"), ("sweep", {}, None), "UnknownOp\n", 3),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_every_subcommand_sends_and_renders_as_before(capsys, monkeypatch, tmp_path, contract_file, case, as_json):
    argv, reply, sent, text_out, code = GOLDEN[case]
    readable = tmp_path / "t.txt"
    readable.write_text(FILE_TEXT, encoding="utf-8")
    paths = {"{file}": str(readable), "{missing}": str(tmp_path / "missing"), "{contract}": contract_file}
    argv = ["--endpoint", "E"] + [paths.get(arg, arg) for arg in argv]
    calls = []

    def fake_request(endpoint, op, args, token=None):
        assert endpoint == "E"
        calls.append((op, args, token))
        return reply

    monkeypatch.setattr(cli, "request", fake_request)
    out, err = run(capsys, ["--json"] + argv if as_json else argv, expect=code)
    assert calls == ([] if sent is None else [sent])
    failed = reply is not None and not reply["ok"]
    if as_json and reply is not None:
        assert out == canonical_json(reply["error"] if failed else reply["result"]) + "\n"
    else:
        assert out == text_out
    if sent is None:
        assert (err == "") == (code == 0)
        assert code == 0 or err.startswith(f"cannot read {paths['{missing}']}: ")
    else:
        assert (err == "") == (as_json or not failed)
        assert not failed or as_json or err == f"why {reply['error']['code']}\n"
