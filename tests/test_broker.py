"""The broker core: op dispatch, persistence, sweep, break-glass wiring."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import enclave_broker
from enclave_broker import audit as audit_mod
from enclave_broker.broker import OPS, BrokerConfig, BrokerCore
from enclave_broker.contracts import is_live
from enclave_broker.enclave import CAUSE_BREAK_GLASS_AUTO, CAUSE_REVOCATION
from enclave_broker.errors import BadConfig, StorageFailure

from conftest import C1_TEXT, C1_SEGMENT_ROWS, fold_transitions, live_grants, make_core

BG_TEMPLATE = """
contract "bg-incident-42" {
  principal "alice"
  purpose "sev1 database incident"
  expires_in 600s
  grant {
    source warehouse.orders
    columns *
  }
}
"""


def call(core, op, args=None, token=None, req_id="r1"):
    request = {"op": op, "id": req_id}
    if args is not None:
        request["args"] = args
    if token is not None:
        request["token"] = token
    return core.handle(request)


def ok(core, op, args=None, token=None):
    resp = call(core, op, args, token)
    assert resp["ok"], resp
    return resp["result"]


def err_code(resp):
    assert resp["ok"] is False
    return resp["error"]["code"]


def standard_session(core):
    """submit, activate, broker, open; returns (token, enclave_id, session_id)."""
    ok(core, "submit_contract", {"text": C1_TEXT})
    token = ok(core, "activate_contract", {"contract_id": "c1"})["token"]
    enclave_id = ok(core, "broker_enclave", {"contract_id": "c1"})["enclave_id"]
    session_id = ok(core, "open_session", {"enclave_id": enclave_id, "token": token})["session_id"]
    return token, enclave_id, session_id


# ---- envelope handling ----


def test_handle_is_total_over_garbage(tmp_path):
    core = make_core(tmp_path)
    garbage = [
        None,
        42,
        "sweep",
        [],
        {},
        {"op": None},
        {"op": 7, "id": 3},
        {"op": "query"},
        {"op": "query", "args": "not an object"},
        {"op": "tick", "args": {"seconds": "soon"}},
        {"op": "tick", "args": {}},
        {"op": "open_session", "args": {"enclave_id": "e", "token": 99}},
        {"op": "nope", "id": 9},
    ]
    for request in garbage:
        resp = core.handle(request)
        assert resp["ok"] is False
        assert set(resp["error"]) == {"code", "message"}
    assert err_code(core.handle({"op": "nope"})) == "UnknownOp"
    assert err_code(core.handle({"op": "query"})) == "BadRequest"


def test_handle_echoes_request_id(tmp_path):
    core = make_core(tmp_path)
    assert call(core, "sweep", req_id="abc")["id"] == "abc"
    assert call(core, "nope", req_id=17)["id"] == 17
    assert core.handle(None)["id"] is None


_SAMPLE = {str: "x", int: 0}


def sample_args(spec, skip=None):
    """One well-typed value for every arg of `spec` but `skip`."""
    return {k.rstrip("?"): _SAMPLE[t] for k, t in spec.items() if k.rstrip("?") != skip}


def test_every_declared_op_dispatches(tmp_path):
    core = make_core(tmp_path, bg_accounts=("alice", "bob"))
    for op, spec in OPS.items():
        assert callable(getattr(core, op))
        args = {**sample_args(spec), "unknown_extra": [1, {}]}
        resp = core.handle({"op": op, "id": op, "args": args})
        # Well-typed args always reach the handler, and unknown extra args
        # are ignored: never UnknownOp or BadRequest, never an unhandled
        # exception.
        assert resp["id"] == op
        if not resp["ok"]:
            assert resp["error"]["code"] not in ("UnknownOp", "BadRequest"), (op, resp)


@pytest.mark.parametrize(
    "op,name",
    [(op, k) for op, spec in OPS.items() for k in spec if not k.endswith("?")],
)
def test_missing_required_arg_is_a_bad_request(tmp_path, op, name):
    core = make_core(tmp_path)
    before = len(core.ledger)
    resp = call(core, op, sample_args(OPS[op], skip=name))
    assert err_code(resp) == "BadRequest"
    assert name in resp["error"]["message"]
    assert len(core.ledger) == before


# ---- contract ops ----


def test_submit_activate_query_round_trip(tmp_path):
    core = make_core(tmp_path)
    result = ok(core, "submit_contract", {"text": C1_TEXT})
    assert result == {"contract_id": "c1", "status": "Draft"}
    activated = ok(core, "activate_contract", {"contract_id": "c1"})
    assert activated["status"] == "Active"
    assert activated["expires_at"] == activated["activated_at"] + 3600
    assert isinstance(activated["token"], str) and activated["token"]

    enclave_id = ok(core, "broker_enclave", {"contract_id": "c1"})["enclave_id"]
    assert core.enclaves[enclave_id].state == "Serving"
    session = ok(core, "open_session", {"enclave_id": enclave_id}, token=activated["token"])
    out = ok(core, "query", {"session_id": session["session_id"], "text": "SELECT * FROM orders"})
    assert out["columns"] == ["order_id", "amount", "created_at"]
    assert len(out["rows"]) == len(C1_SEGMENT_ROWS)
    closed = ok(core, "close_session", {"session_id": session["session_id"]})
    assert closed["closed"] is True


def test_submit_rejections(tmp_path):
    core = make_core(tmp_path)
    assert err_code(call(core, "submit_contract", {"text": "contract {"})) == "ParseError"
    bad = C1_TEXT.replace("warehouse.orders", "warehouse.ghost")
    assert err_code(call(core, "submit_contract", {"text": bad})) == "ValidationFailed"
    ok(core, "submit_contract", {"text": C1_TEXT})
    assert err_code(call(core, "submit_contract", {"text": C1_TEXT})) == "DuplicateContract"


@pytest.mark.parametrize("restart", [False, True])
def test_a_submit_the_ledger_cannot_record_leaves_no_contract(tmp_path, restart):
    # The TTL in seconds has more digits than JSON will encode.
    core = make_core(tmp_path)
    huge = C1_TEXT.replace("expires_in 3600s", "expires_in " + "9" * 4299 + "h")
    resp = call(core, "submit_contract", {"text": huge})
    assert err_code(resp) == "BadRequest"
    assert len(core.ledger) == 0
    assert list((tmp_path / "contracts").iterdir()) == []
    if restart:
        core.close()
        core = make_core(tmp_path)
    assert err_code(call(core, "activate_contract", {"contract_id": "c1"})) == "UnknownEntity"
    assert ok(core, "submit_contract", {"text": C1_TEXT})["contract_id"] == "c1"
    core.close()


def _submitted(core):
    ok(core, "submit_contract", {"text": C1_TEXT})
    return {"contract_id": "c1"}


def _activated(core):
    ok(core, "activate_contract", _submitted(core))
    return {"contract_id": "c1"}


def _expired(core):
    _activated(core)
    ok(core, "tick", {"seconds": 3600})
    return None


def _half_approved(core):
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    return {"request_id": rid, "approver": "carol"}


def _bg_template(core):
    return {"account": "alice", "template": BG_TEMPLATE}


def _requested(core):
    rid = ok(core, "bg_request", _bg_template(core))["request_id"]
    return {"request_id": rid, "approver": "bob"}


def _requested_for_deny(core):
    return {"request_id": _requested(core)["request_id"]}


def _brokered(core):
    token = ok(core, "activate_contract", _submitted(core))["token"]
    enclave_id = ok(core, "broker_enclave", {"contract_id": "c1"})["enclave_id"]
    return {"enclave_id": enclave_id, "token": token}


def _opened(core):
    return {"session_id": ok(core, "open_session", _brokered(core))["session_id"]}


# Each op's setup returns the op's args.
@pytest.mark.parametrize(
    "setup,kind,op,contract_id",
    [
        (_submitted, audit_mod.CONTRACT_ACTIVATED, "activate_contract", "c1"),
        (_activated, audit_mod.CONTRACT_REVOKED, "revoke_contract", "c1"),
        (_expired, audit_mod.CONTRACT_EXPIRED, "sweep", "c1"),
        (_half_approved, audit_mod.BREAK_GLASS_ACTIVATED, "bg_approve", "bg-incident-42"),
        (_bg_template, audit_mod.BREAK_GLASS_REQUESTED, "bg_request", "bg-incident-42"),
        (_requested, audit_mod.BREAK_GLASS_APPROVED, "bg_approve", "bg-incident-42"),
        (_requested_for_deny, audit_mod.BREAK_GLASS_DENIED, "bg_deny", "bg-incident-42"),
        (_brokered, audit_mod.SESSION_OPENED, "open_session", "c1"),
        (_opened, audit_mod.SESSION_CLOSED, "close_session", "c1"),
    ],
    ids=[
        "activate",
        "revoke",
        "expire",
        "bg_activate",
        "bg_request",
        "bg_approve",
        "bg_deny",
        "open_session",
        "close_session",
    ],
)
def test_a_contract_change_the_ledger_cannot_record_changes_nothing(tmp_path, setup, kind, op, contract_id):
    core = make_core(tmp_path, bg_accounts=("alice", "bob", "carol"))
    args = setup(core)
    path = tmp_path / "contracts" / f"{contract_id}.json"

    def state():
        return (
            core.contracts.get(contract_id),
            path.read_bytes() if path.exists() else None,
            dict(core.tokens),
            {rid: req.status for rid, req in core.break_glass.requests.items()},
            {sid: s.closed for sid, s in core.gateway.sessions.items()},
        )

    before = state()
    append = core.ledger.append

    def refuse(timestamp, actor, event_kind, payload):
        if event_kind == kind:
            raise StorageFailure("audit append failed: disk full")
        return append(timestamp, actor, event_kind, payload)

    core.ledger.append = refuse
    assert err_code(call(core, op, args)) == "StorageFailure"
    assert state() == before
    events = list(core.ledger.events())
    assert kind not in [e.kind for e in events]
    # Every approval the broker holds is one the ledger recorded.
    held = [(rid, a) for rid, req in core.break_glass.requests.items() for a in req.approvals]
    recorded = [
        (e.payload["request_id"], e.payload["approver"])
        for e in events
        if e.kind == audit_mod.BREAK_GLASS_APPROVED
    ]
    assert held == recorded
    core.close()


def test_open_session_token_rules(tmp_path):
    core = make_core(tmp_path)
    ok(core, "submit_contract", {"text": C1_TEXT})
    token = ok(core, "activate_contract", {"contract_id": "c1"})["token"]
    enclave_id = ok(core, "broker_enclave", {"contract_id": "c1"})["enclave_id"]

    no_token = call(core, "open_session", {"enclave_id": enclave_id})
    assert err_code(no_token) == "BadToken"
    wrong = call(core, "open_session", {"enclave_id": enclave_id, "token": "guess"})
    assert err_code(wrong) == "BadToken"
    # A token is never a BadRequest, whatever its type.
    for bad in (99, ["t"], {"t": 1}):
        assert err_code(call(core, "open_session", {"enclave_id": enclave_id, "token": bad})) == "BadToken"
    assert err_code(call(core, "open_session", {"enclave_id": enclave_id}, token=7)) == "BadToken"
    # The envelope token works exactly like the args token.
    via_envelope = call(core, "open_session", {"enclave_id": enclave_id}, token=token)
    assert via_envelope["ok"]


def test_activation_is_idempotent_never(tmp_path):
    core = make_core(tmp_path)
    ok(core, "submit_contract", {"text": C1_TEXT})
    ok(core, "activate_contract", {"contract_id": "c1"})
    assert err_code(call(core, "activate_contract", {"contract_id": "c1"})) == "StateError"
    assert err_code(call(core, "activate_contract", {"contract_id": "zz"})) == "UnknownEntity"


def test_revoke_tears_down_everything_at_once(tmp_path):
    core = make_core(tmp_path)
    token, enclave_id, session_id = standard_session(core)
    second = ok(core, "broker_enclave", {"contract_id": "c1"})["enclave_id"]

    result = ok(core, "revoke_contract", {"contract_id": "c1", "reason": "leak"})
    assert result["status"] == "Revoked"
    assert set(result["revoked_enclaves"]) == {enclave_id, second}
    chains = fold_transitions(core)
    for eid in (enclave_id, second):
        assert core.enclaves[eid].state == "Revoked"
        assert chains[eid][-1]["cause"] == CAUSE_REVOCATION
    denied = call(core, "query", {"session_id": session_id, "text": "SELECT order_id FROM orders"})
    assert err_code(denied) == "ContractExpired"
    reopen = call(core, "open_session", {"enclave_id": enclave_id, "token": token})
    assert err_code(reopen) == "EnclaveNotServing"


# ---- clock and sweep ----


def test_tick_requires_logical_clock(tmp_path):
    core = make_core(tmp_path, clock_mode="Wall")
    assert err_code(call(core, "tick", {"seconds": 5})) == "StateError"
    with pytest.raises(BadConfig):
        BrokerCore(BrokerConfig(data_dir=str(tmp_path), clock_mode="Sundial"))


@pytest.mark.parametrize(
    "op,name,value,extra",
    [
        ("query", "text", 5, {}),
        ("bg_deny", "operator", ["x", 5], {}),
        ("revoke_contract", "reason", {"why": "leak"}, {"contract_id": "c1"}),
        ("alerts", "since", "abc", {}),
        ("alerts", "until", True, {}),
        ("alerts", "rule", 3, {}),
        ("bg_request", "justification", 7, {"account": "alice", "template": BG_TEMPLATE}),
        ("submit_contract", "text", None, {}),
    ],
)
def test_mistyped_args_are_bad_requests_and_leave_no_trace(tmp_path, op, name, value, extra):
    core = bg_core(tmp_path)
    _, _, session_id = standard_session(core)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    args = {"session_id": session_id, "request_id": rid, **extra, name: value}
    before = len(core.ledger)
    resp = call(core, op, args)
    assert err_code(resp) == "BadRequest"
    assert name in resp["error"]["message"]
    assert len(core.ledger) == before


@pytest.mark.parametrize(
    "op,name",
    [(op, k.rstrip("?")) for op, spec in OPS.items() for k, t in spec.items() if t is str],
)
def test_string_arg_with_lone_surrogate_is_refused_before_the_op(tmp_path, op, name):
    # JSON carries "\ud800" but UTF-8 cannot, so neither the ledger nor
    # the reply could hold it: the op must not run at all.
    core = bg_core(tmp_path)
    _, _, session_id = standard_session(core)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    context = {"session_id": session_id, "request_id": rid, "account": "alice", "template": BG_TEMPLATE}
    args = {k: context.get(k, v) for k, v in sample_args(OPS[op]).items()}
    args[name] = "x\ud800"
    before, requests = len(core.ledger), len(core.break_glass.requests)
    resp = call(core, op, args)
    assert err_code(resp) == "BadRequest"
    assert name in resp["error"]["message"]
    assert len(core.ledger) == before
    assert len(core.break_glass.requests) == requests


@pytest.mark.parametrize("req_id", ["\ud800", ["ok", {"k": "\udfff"}], {"\ud800": 1}])
def test_request_id_with_lone_surrogate_gets_a_null_id(tmp_path, req_id):
    core = make_core(tmp_path)
    resp = core.handle({"op": "sweep", "id": req_id})
    assert resp["id"] is None
    assert err_code(resp) == "BadRequest"
    assert call(core, "sweep", req_id="\U0001f600")["id"] == "\U0001f600"


def test_tick_takes_only_whole_integers(tmp_path):
    core = make_core(tmp_path)
    for seconds in ("5", True, 5.9, None):
        assert err_code(call(core, "tick", {"seconds": seconds})) == "BadRequest"
    assert ok(core, "tick", {"seconds": 0}) == {"now": 0}


def test_expiry_is_lazy_and_sweep_settles_it(tmp_path):
    core = make_core(tmp_path)
    token, enclave_id, session_id = standard_session(core)

    ok(core, "tick", {"seconds": 3599})
    assert call(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})["ok"]

    ok(core, "tick", {"seconds": 1})
    # Expired by the clock, untouched by any machinery yet.
    assert core.enclaves[enclave_id].state == "Serving"
    denied = call(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})
    assert err_code(denied) == "ContractExpired"

    swept = ok(core, "sweep")
    assert swept == {"expired": ["c1"], "expired_enclaves": [enclave_id], "bg_auto_revoked": []}
    assert core.contracts["c1"].status == "Expired"
    assert core.enclaves[enclave_id].state == "Expired"
    assert live_grants(core) == []
    # Sweeping again finds nothing.
    assert ok(core, "sweep") == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": []}


# ---- persistence ----


def test_restart_recovers_contracts_clock_and_ledger(tmp_path):
    core = make_core(tmp_path)
    token, enclave_id, session_id = standard_session(core)
    ok(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})
    ok(core, "tick", {"seconds": 10})
    events_before = len(core.ledger)
    core.close()

    reborn = make_core(tmp_path)
    assert reborn.clock.now() == 10
    c = reborn.contracts["c1"]
    assert c.status == "Active" and is_live(c, reborn.clock.now())
    assert len(reborn.ledger) == events_before
    # New events keep extending the same chain across the restart.
    ok(reborn, "revoke_contract", {"contract_id": "c1"})
    assert len(reborn.ledger) == events_before + 1
    assert ok(reborn, "audit_verify") == {"verified": True, "events": len(reborn.ledger)}
    reborn.close()


def test_audit_verify_sees_a_flip_in_the_already_verified_prefix(tmp_path):
    core = make_core(tmp_path)
    standard_session(core)
    assert ok(core, "audit_verify") == {"verified": True, "events": len(core.ledger)}
    path = tmp_path / "audit.log"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    expected = audit_mod.verify_file(str(path))
    assert expected is not None
    assert ok(core, "audit_verify") == {
        "verified": False,
        "first_bad_seq": expected,
        "events": len(core.ledger),
    }
    core.close()


@pytest.mark.parametrize(
    "line",
    [b'{"actor":"a","payload":{"n":' + b"9" * 5000 + b"}}", b"[" * 100_000],
    ids=["long-int", "deep"],
)
def test_audit_verify_answers_on_a_line_the_parser_refuses(tmp_path, line):
    # An int past the digit limit is a ValueError and deep nesting a
    # RecursionError; either is a bad line, not an error reply or a raise.
    core = make_core(tmp_path)
    standard_session(core)
    events = len(core.ledger)
    with open(tmp_path / "audit.log", "ab") as fh:
        fh.write(line + b"\n")
    assert ok(core, "audit_verify") == {"verified": False, "first_bad_seq": events, "events": events}
    core.close()


def test_restart_never_resurrects_expired_access(tmp_path):
    core = make_core(tmp_path)
    standard_session(core)
    ok(core, "tick", {"seconds": 4000})
    core.close()

    reborn = make_core(tmp_path)
    assert live_grants(reborn) == []
    swept = ok(reborn, "sweep")
    assert swept["expired"] == ["c1"]
    assert reborn.contracts["c1"].status == "Expired"
    reborn.close()

    third = make_core(tmp_path)
    assert third.contracts["c1"].status == "Expired"
    assert live_grants(third) == []
    third.close()


def test_revocation_survives_restart(tmp_path):
    core = make_core(tmp_path)
    standard_session(core)
    ok(core, "revoke_contract", {"contract_id": "c1"})
    core.close()

    reborn = make_core(tmp_path)
    assert reborn.contracts["c1"].status == "Revoked"
    assert err_code(call(reborn, "activate_contract", {"contract_id": "c1"})) == "StateError"
    reborn.close()


def test_a_contract_or_clock_file_that_cannot_be_written_answers_storage_failure(tmp_path):
    core = make_core(tmp_path)
    # Nothing can be written under a contracts "directory" that is a file.
    (tmp_path / "contracts").rmdir()
    (tmp_path / "contracts").write_bytes(b"")
    resp = call(core, "submit_contract", {"text": C1_TEXT})
    assert err_code(resp) == "StorageFailure"
    # The ledger recorded the submit, and memory keeps what it recorded.
    assert [e.kind for e in core.ledger.events()] == [audit_mod.CONTRACT_SUBMITTED]
    assert core.contracts["c1"].status == "Draft"
    # No file can replace a directory.
    (tmp_path / "clock.json").mkdir()
    assert err_code(call(core, "tick", {"seconds": 5})) == "StorageFailure"
    assert core.clock.now() == 5


# Starts a broker on an existing data dir and prints, in ASCII, what it
# read back: the contract's purpose and the clock.
_RESTART = """
import sys
from enclave_broker.broker import BrokerConfig, BrokerCore
core = BrokerCore(BrokerConfig(data_dir=sys.argv[1], tables={"warehouse.orders": sys.argv[2]}))
print(ascii(core.contracts["c1"].purpose), core.clock.now())
core.tick(1)
core.close()
"""


def test_contract_and_clock_files_are_utf8_whatever_the_locale(tmp_path):
    core = make_core(tmp_path)
    ok(core, "submit_contract", {"text": C1_TEXT.replace("quarterly revenue report", "revenue \u2014 Q3")})
    ok(core, "tick", {"seconds": 7})
    core.close()
    src = str(Path(enclave_broker.__file__).resolve().parents[1])
    # The C locale, with neither UTF-8 mode nor locale coercion: the
    # locale's encoding is ASCII.
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    argv = [sys.executable, "-c", _RESTART, str(tmp_path), core.config.tables["warehouse.orders"]]
    for now in (7, 8):
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["'revenue", "\\u2014", "Q3'", str(now)]
    assert make_core(tmp_path).clock.now() == 9


# ---- break-glass through the broker ----


def bg_core(tmp_path):
    return make_core(tmp_path, bg_accounts=("alice", "bob", "carol"))


def test_break_glass_full_flow(tmp_path):
    core = bg_core(tmp_path)
    req = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE, "justification": "fire"})
    assert req["status"] == "Pending" and req["quorum"] == 2
    rid = req["request_id"]

    assert err_code(call(core, "bg_approve", {"request_id": rid, "approver": "alice"})) == "SelfApproval"
    first = ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    assert first == {"request_id": rid, "status": "Pending", "approvals": ["bob"]}
    assert err_code(call(core, "bg_approve", {"request_id": rid, "approver": "bob"})) == "DuplicateApproval"

    final = ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})
    assert final["status"] == "Activated"
    assert final["approvals"] == ["bob", "carol"]
    assert final["contract_id"] == "bg-incident-42"
    assert final["expires_at"] == core.clock.now() + 900
    # Quorum produced a fully serving enclave in the same step.
    assert core.enclaves[final["enclave_id"]].state == "Serving"
    session = ok(core, "open_session", {"enclave_id": final["enclave_id"], "token": final["token"]})
    out = ok(core, "query", {"session_id": session["session_id"], "text": "SELECT * FROM orders"})
    assert len(out["rows"]) == 3

    # Activation screamed: a critical alert plus the full audit trail.
    alerts = ok(core, "alerts", {"rule": "BreakGlassActivated"})["alerts"]
    assert len(alerts) == 1
    assert alerts[0]["severity"] == "Critical"
    assert alerts[0]["session_id"] == f"break-glass:{rid}"
    kinds = [e.kind for e in core.ledger.events()]
    for needed in (
        audit_mod.BREAK_GLASS_REQUESTED,
        audit_mod.BREAK_GLASS_APPROVED,
        audit_mod.BREAK_GLASS_ACTIVATED,
        audit_mod.ALERT_RAISED,
    ):
        assert needed in kinds


def test_repeat_approval_retries_an_activation_the_ledger_refused(tmp_path):
    core = bg_core(tmp_path)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    append = core.ledger.append

    def refuse(timestamp, actor, kind, payload):
        if kind == audit_mod.BREAK_GLASS_ACTIVATED:
            raise StorageFailure("audit append failed: disk full")
        return append(timestamp, actor, kind, payload)

    core.ledger.append = refuse
    assert err_code(call(core, "bg_approve", {"request_id": rid, "approver": "carol"})) == "StorageFailure"
    assert core.break_glass.requests[rid].status == "Pending"
    core.ledger.append = append
    # No account is left to approve, so only a repeat can activate it.
    final = ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    assert final["status"] == "Activated"
    assert final["approvals"] == ["bob", "carol"]
    assert core.enclaves[final["enclave_id"]].state == "Serving"
    kinds = [e.kind for e in core.ledger.events()]
    assert kinds.count(audit_mod.BREAK_GLASS_APPROVED) == 2
    assert kinds.count(audit_mod.BREAK_GLASS_ACTIVATED) == 1
    assert err_code(call(core, "bg_approve", {"request_id": rid, "approver": "carol"})) == "StateError"


def test_break_glass_rejects_unregistered_approvers(tmp_path):
    core = bg_core(tmp_path)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    for name in ("mallory", "mallory2"):
        resp = call(core, "bg_approve", {"request_id": rid, "approver": name})
        assert err_code(resp) == "UnknownAccount"
    assert "bg-incident-42" not in core.contracts
    assert core.enclaves == {}
    assert audit_mod.BREAK_GLASS_APPROVED not in [e.kind for e in core.ledger.events()]
    # The request is still open to registered approvers.
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    assert ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})["status"] == "Activated"


def test_break_glass_window_closes_by_sweep(tmp_path):
    core = bg_core(tmp_path)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    final = ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})
    session = ok(
        core, "open_session", {"enclave_id": final["enclave_id"], "token": final["token"]}
    )["session_id"]

    ok(core, "tick", {"seconds": 899})
    assert ok(core, "sweep") == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": []}
    assert call(core, "query", {"session_id": session, "text": "SELECT * FROM orders"})["ok"]

    ok(core, "tick", {"seconds": 1})
    swept = ok(core, "sweep")
    assert swept["bg_auto_revoked"] == [rid]
    assert swept["expired"] == ["bg-incident-42"]
    assert swept["expired_enclaves"] == [final["enclave_id"]]
    assert core.enclaves[final["enclave_id"]].state == "Expired"
    assert fold_transitions(core)[final["enclave_id"]][-1]["cause"] == CAUSE_BREAK_GLASS_AUTO
    denied = call(core, "query", {"session_id": session, "text": "SELECT * FROM orders"})
    assert err_code(denied) == "ContractExpired"
    assert core.break_glass.requests[rid].status == "AutoRevoked"
    assert audit_mod.BREAK_GLASS_REVOKED in [e.kind for e in core.ledger.events()]


def test_sweep_revokes_break_glass_only_once_the_ledger_records_it(tmp_path):
    core = bg_core(tmp_path)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    final = ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})
    ok(core, "tick", {"seconds": 900})
    append = core.ledger.append

    def refuse(timestamp, actor, kind, payload):
        if kind == audit_mod.BREAK_GLASS_REVOKED:
            raise StorageFailure("audit append failed: disk full")
        return append(timestamp, actor, kind, payload)

    core.ledger.append = refuse
    assert err_code(call(core, "sweep")) == "StorageFailure"
    assert core.break_glass.requests[rid].status == "Activated"
    core.ledger.append = append
    # The contract expired and the enclave shut in the refused sweep, so
    # the retry records only the revocation, then marks the request.
    swept = ok(core, "sweep")
    assert swept == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": [rid]}
    assert core.break_glass.requests[rid].status == "AutoRevoked"
    assert fold_transitions(core)[final["enclave_id"]][-1]["cause"] == CAUSE_BREAK_GLASS_AUTO
    kinds = [e.kind for e in core.ledger.events()]
    assert kinds.count(audit_mod.BREAK_GLASS_REVOKED) == 1
    assert kinds.count(audit_mod.CONTRACT_EXPIRED) == 1
    assert ok(core, "sweep") == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": []}


def test_a_shutdown_the_ledger_refuses_is_made_by_the_next_sweep(tmp_path):
    core = make_core(tmp_path)
    _, enclave_id, session_id = standard_session(core)
    append = core.ledger.append

    def refuse(timestamp, actor, kind, payload):
        if kind == audit_mod.ENCLAVE_TRANSITION:
            raise StorageFailure("audit append failed: disk full")
        return append(timestamp, actor, kind, payload)

    core.ledger.append = refuse
    assert err_code(call(core, "revoke_contract", {"contract_id": "c1"})) == "StorageFailure"
    core.ledger.append = append
    # The revocation committed and the shutdown did not, so the enclave
    # is still Serving, but under a dead contract nothing is served.
    assert core.enclaves[enclave_id].state == "Serving"
    denied = call(core, "query", {"session_id": session_id, "text": "SELECT order_id FROM orders"})
    assert err_code(denied) == "ContractExpired"
    assert ok(core, "sweep")["expired_enclaves"] == [enclave_id]
    shutdowns = [
        (e.payload["from"], e.payload["to"], e.payload["cause"])
        for e in core.ledger.events()
        if e.kind == audit_mod.ENCLAVE_TRANSITION and e.payload["from"] == "Serving"
    ]
    assert shutdowns == [("Serving", "Revoked", CAUSE_REVOCATION)]
    assert core.enclaves[enclave_id].state == "Revoked"


def test_a_repeat_revoke_makes_a_shutdown_the_ledger_refused(tmp_path):
    core = make_core(tmp_path)
    _, enclave_id, _ = standard_session(core)
    append = core.ledger.append

    def refuse(timestamp, actor, kind, payload):
        if kind == audit_mod.ENCLAVE_TRANSITION:
            raise StorageFailure("audit append failed: disk full")
        return append(timestamp, actor, kind, payload)

    core.ledger.append = refuse
    assert err_code(call(core, "revoke_contract", {"contract_id": "c1", "reason": "leak"})) == "StorageFailure"
    core.ledger.append = append
    assert core.enclaves[enclave_id].state == "Serving"
    retry = ok(core, "revoke_contract", {"contract_id": "c1"})
    assert retry == {"contract_id": "c1", "status": "Revoked", "revoked_enclaves": [enclave_id]}
    e = core.enclaves[enclave_id]
    assert (e.state, e.gateway_open, e.segments) == ("Revoked", False, {})
    chain = fold_transitions(core)[enclave_id]
    assert chain[-1] == {
        "enclave_id": enclave_id,
        "contract_id": "c1",
        "from": "Serving",
        "to": "Revoked",
        "cause": CAUSE_REVOCATION,
    }
    revokes = [e.payload for e in core.ledger.events() if e.kind == audit_mod.CONTRACT_REVOKED]
    assert revokes == [{"contract_id": "c1", "reason": "leak"}]
    # Nothing is left to shut, so a further revoke is refused as before.
    assert err_code(call(core, "revoke_contract", {"contract_id": "c1"})) == "StateError"


_BEFORE = {"Provisioning": "Defined", "Sealed": "Provisioning", "Serving": "Sealed"}


@pytest.mark.parametrize("refused", ["Defined", "Provisioning", "Sealed", "Serving"])
def test_a_provisioning_step_the_ledger_refuses_is_not_made(tmp_path, refused):
    core = make_core(tmp_path)
    ok(core, "submit_contract", {"text": C1_TEXT})
    token = ok(core, "activate_contract", {"contract_id": "c1"})["token"]
    append = core.ledger.append

    def refuse(timestamp, actor, kind, payload):
        if kind == audit_mod.ENCLAVE_TRANSITION and payload["to"] == refused:
            raise StorageFailure("audit append failed: disk full")
        return append(timestamp, actor, kind, payload)

    core.ledger.append = refuse
    assert err_code(call(core, "broker_enclave", {"contract_id": "c1"})) == "StorageFailure"
    core.ledger.append = append
    # The enclave holds its last recorded state; with no Defined event,
    # no enclave is registered at all.
    fold_transitions(core)
    assert [e.state for e in core.enclaves.values()] == ([_BEFORE[refused]] if refused in _BEFORE else [])
    for enclave_id in list(core.enclaves) or ["enc-unrecorded"]:
        code = err_code(call(core, "open_session", {"enclave_id": enclave_id, "token": token}))
        assert code in ("EnclaveNotServing", "UnknownEntity")
    ok(core, "tick", {"seconds": 3600})
    assert ok(core, "sweep")["expired_enclaves"] == list(core.enclaves)
    for chain in fold_transitions(core).values():
        assert (chain[-1]["to"], chain[-1]["cause"]) == ("Expired", "Expiry")
    for e in core.enclaves.values():
        assert (e.upstream_open, e.gateway_open, e.segments) == (False, False, {})


def test_break_glass_rejects_colliding_contract_ids(tmp_path):
    core = bg_core(tmp_path)
    ok(core, "submit_contract", {"text": C1_TEXT})
    collide = BG_TEMPLATE.replace('"bg-incident-42"', '"c1"')
    resp = call(core, "bg_request", {"account": "alice", "template": collide})
    assert err_code(resp) == "DuplicateContract"

    # A collision created between request and quorum is caught at activation.
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    squatter = C1_TEXT.replace('"c1"', '"bg-incident-42"')
    ok(core, "submit_contract", {"text": squatter})
    resp = call(core, "bg_approve", {"request_id": rid, "approver": "carol"})
    assert err_code(resp) == "DuplicateContract"


def test_break_glass_denial_path(tmp_path):
    core = bg_core(tmp_path)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    denied = ok(core, "bg_deny", {"request_id": rid})
    assert denied == {"request_id": rid, "status": "Denied"}
    assert err_code(call(core, "bg_approve", {"request_id": rid, "approver": "bob"})) == "StateError"
    assert audit_mod.BREAK_GLASS_DENIED in [e.kind for e in core.ledger.events()]
    assert err_code(call(core, "bg_request", {"account": "mallory", "template": BG_TEMPLATE})) in (
        "UnknownAccount",
        "ValidationFailed",
    )


# ---- cross-cutting invariants ----


def test_audit_accounts_for_every_transition_and_query(tmp_path):
    core = bg_core(tmp_path)
    token, enclave_id, session_id = standard_session(core)
    statements = ["SHOW TABLES", "SELECT * FROM orders", "COPY INTO s3://x FROM orders", "not even close"]
    for text in statements:
        call(core, "query", {"session_id": session_id, "text": text})
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})
    ok(core, "revoke_contract", {"contract_id": "c1"})
    ok(core, "tick", {"seconds": 10000})
    ok(core, "sweep")

    events = core.ledger.events()
    transition_events = [e for e in events if e.kind == audit_mod.ENCLAVE_TRANSITION]
    chains = fold_transitions(core)
    assert len(transition_events) == sum(len(chain) for chain in chains.values())

    queries = [e for e in events if e.kind in (audit_mod.QUERY_EXECUTED, audit_mod.QUERY_DENIED)]
    assert [e.payload["statement"] for e in queries] == statements

    activations = [
        e
        for e in events
        if e.kind in (audit_mod.CONTRACT_ACTIVATED, audit_mod.BREAK_GLASS_ACTIVATED)
    ]
    ever_active = [c for c in core.contracts.values() if c.activated_at is not None]
    assert len(activations) == len(ever_active)

    assert ok(core, "audit_verify")["verified"] is True


def kinds_since(core, start):
    return [e.kind for e in core.ledger.events()[start:]]


def test_enumeration_alert_follows_the_query_that_raised_it(tmp_path):
    core = make_core(tmp_path)
    _, _, session_id = standard_session(core)
    start = len(core.ledger)
    ok(core, "query", {"session_id": session_id, "text": "SHOW TABLES"})
    ok(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})
    assert kinds_since(core, start) == [
        audit_mod.QUERY_EXECUTED,
        audit_mod.QUERY_EXECUTED,
        audit_mod.ALERT_RAISED,
    ]
    alert = core.ledger.events()[-1]
    assert alert.actor == "monitor"
    assert alert.payload == {
        "alert_id": ok(core, "alerts")["alerts"][0]["alert_id"],
        "rule": "EnumerationPattern",
        "severity": "High",
        "session_id": session_id,
        "contract_id": "c1",
    }


def test_query_payloads_carry_select_star(tmp_path):
    core = make_core(tmp_path)
    _, _, session_id = standard_session(core)
    start = len(core.ledger)
    for text in (
        "SHOW TABLES",
        "SELECT order_id FROM orders",
        "SELECT * FROM orders",
        "garbage ((",
        "COPY INTO s3://x FROM orders",
    ):
        call(core, "query", {"session_id": session_id, "text": text})
    stars = [
        e.payload["select_star"]
        for e in core.ledger.events()[start:]
        if e.kind in (audit_mod.QUERY_EXECUTED, audit_mod.QUERY_DENIED)
    ]
    assert stars == [False, False, True, False, False]


def test_quorum_approval_alerts_right_after_activation(tmp_path):
    core = bg_core(tmp_path)
    rid = ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE})["request_id"]
    ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
    start = len(core.ledger)
    ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})
    assert kinds_since(core, start) == [
        audit_mod.BREAK_GLASS_APPROVED,
        audit_mod.BREAK_GLASS_ACTIVATED,
        audit_mod.ALERT_RAISED,
    ] + [audit_mod.ENCLAVE_TRANSITION] * 4
    events = core.ledger.events()[start:]
    assert events[2].payload["rule"] == "BreakGlassActivated"
    assert events[2].payload["severity"] == "Critical"
    assert [e.payload["to"] for e in events[3:]] == ["Defined", "Provisioning", "Sealed", "Serving"]


def test_alert_filters_through_op(tmp_path):
    core = make_core(tmp_path)
    token, enclave_id, session_id = standard_session(core)
    ok(core, "query", {"session_id": session_id, "text": "SHOW TABLES"})
    ok(core, "query", {"session_id": session_id, "text": "SELECT * FROM orders"})
    call(core, "query", {"session_id": session_id, "text": "COPY INTO s3://x FROM orders"})

    everything = ok(core, "alerts")["alerts"]
    assert [a["rule"] for a in everything] == ["EnumerationPattern", "ExfiltrationAttempt"]
    assert ok(core, "alerts", {"rule": "ExfiltrationAttempt"})["alerts"][0]["severity"] == "Critical"
    assert ok(core, "alerts", {"contract_id": "zzz"})["alerts"] == []
    assert ok(core, "alerts", {"enclave_id": enclave_id})["alerts"] != []


@pytest.mark.parametrize(
    "literal",
    ["1" * 5000, "²", "1" * 400 + ".5"],
    ids=["integer-too-long", "superscript-digit", "decimal-overflow"],
)
def test_unreadable_literals_are_audited_parse_errors(tmp_path, literal):
    core = make_core(tmp_path)
    _, _, session_id = standard_session(core)
    start = len(core.ledger)
    text = f"SELECT order_id FROM orders WHERE amount > {literal}"
    resp = call(core, "query", {"session_id": session_id, "text": text})
    assert err_code(resp) == "ParseError"
    (event,) = core.ledger.events()[start:]
    assert event.kind == audit_mod.QUERY_DENIED
    assert event.payload["statement_kind"] == "Invalid"
    assert event.payload["statement"] == text
