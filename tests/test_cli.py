"""CLI behavior: exit codes, rendering, --json, flag placement."""

from __future__ import annotations

import json

import pytest

from enclave_broker import cli
from enclave_broker.canonical import canonical_json
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
    srv = BrokerServer(make_core(bg_accounts=("alice", "bob", "carol")), str(tmp_path / "b.sock"))
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
    out, err = run(capsys, ["sweep"], expect=2)
    assert "endpoint" in err


def test_unreachable_broker_exits_3(capsys, tmp_path):
    out, err = run(capsys, ["--endpoint", str(tmp_path / "void.sock"), "sweep"], expect=3)
    assert "cannot reach broker" in err


def test_policy_denial_exits_1(capsys, endpoint):
    out, err = run(capsys, ["--endpoint", endpoint, "session", "close", "ses-nope"], expect=1)
    assert out.strip() == "UnknownEntity"
    assert "ses-nope" in err


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
