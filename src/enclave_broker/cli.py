"""Operator CLI: one subcommand per broker protocol op.

Exit codes are part of the interface: 0 success, 1 denied by policy,
2 usage error, 3 broker or transport failure. With --json, stdout is
the broker's JSON result verbatim, so scripts can pipe it.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys

from .canonical import canonical_json
from .contract_dsl import parse_contract
from .contracts import validate_contract
from .errors import BrokerError, ParseError
from .store import TableStore, load_table_csv

EXIT_OK = 0
EXIT_DENIED = 1
EXIT_USAGE = 2
EXIT_BROKER = 3

# Deterministic "no" answers: the broker heard the request and refused.
POLICY_CODES = {
    "UnknownTable",
    "ColumnOutOfScope",
    "StatementForbidden",
    "SessionDead",
    "ContractExpired",
    "BadToken",
    "EnclaveNotServing",
    "ContractNotLive",
    "StateError",
    "ManTrapViolation",
    "ParseError",
    "ValidationFailed",
    "SelfApproval",
    "DuplicateApproval",
    "UnknownAccount",
    "UnknownSource",
    "UnknownColumn",
    "TypeMismatch",
    "DuplicateTable",
    "DuplicateContract",
    "UnknownEntity",
}


class TransportError(Exception):
    pass


def request(endpoint: str, op: str, args: dict, token: str | None = None) -> dict:
    """One request, one response, over a fresh connection."""
    payload = {"op": op, "args": args, "id": f"cli-{os.getpid()}"}
    if token is not None:
        payload["token"] = token
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(endpoint)
            sock.sendall(canonical_json(payload).encode("utf-8") + b"\n")
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            line = reader.readline()
    except OSError as exc:
        raise TransportError(f"cannot reach broker at {endpoint}: {exc}") from None
    if not line:
        raise TransportError(f"broker at {endpoint} closed the connection")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TransportError(f"broker sent bad JSON: {exc}") from None


class Run:
    """Carries the global flags and turns responses into output + exit codes."""

    def __init__(self, endpoint: str | None, token: str | None, as_json: bool):
        self.endpoint = endpoint
        self.token = token
        self.as_json = as_json

    def call(self, op: str, args: dict, render, token: str | None = None) -> int:
        if not self.endpoint:
            print("no endpoint; pass --endpoint or set ENCLAVE_BROKER_ENDPOINT", file=sys.stderr)
            return EXIT_USAGE
        response = request(self.endpoint, op, args, token)
        if response.get("ok"):
            result = response["result"]
            if self.as_json:
                print(canonical_json(result))
            else:
                render(result)
            return EXIT_OK
        error = response.get("error", {})
        code = error.get("code", "BrokerError")
        if self.as_json:
            print(canonical_json(error))
        else:
            print(code)
            print(error.get("message", ""), file=sys.stderr)
        return EXIT_DENIED if code in POLICY_CODES else EXIT_BROKER


def _render_query(result: dict):
    print(", ".join(result["columns"]))
    for row in result["rows"]:
        print("\t".join(str(cell) for cell in row))
    if result["truncated"]:
        print("(truncated)")


def _render_alerts(result: dict):
    for a in result["alerts"]:
        print(
            f"{a['alert_id']}\t{a['rule']}\t{a['severity']}\t"
            f"session={a['session_id']}\tcontract={a['contract_id']}\tt={a['timestamp']}"
        )
    if not result["alerts"]:
        print("no alerts")


def _render_audit_export(result: dict):
    for event in result["events"]:
        print(canonical_json(event))


def _render_sweep(result: dict):
    print(f"expired contracts: {', '.join(result['expired']) or '-'}")
    print(f"expired enclaves: {', '.join(result['expired_enclaves']) or '-'}")
    print(f"break-glass auto-revoked: {', '.join(result['bg_auto_revoked']) or '-'}")


def _lint(path: str, tables: list[tuple[str, str]]) -> int:
    """Offline check: parse, and validate when table CSVs are given."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        contract = parse_contract(text)
    except ParseError as exc:
        print("ParseError")
        print(str(exc), file=sys.stderr)
        return EXIT_DENIED
    if tables:
        store = TableStore()
        for name, csv_path in tables:
            try:
                load_table_csv(store, name, csv_path)
            except OSError as exc:
                print(f"cannot read {csv_path}: {exc}", file=sys.stderr)
                return EXIT_USAGE
            except BrokerError as exc:
                print(exc.code)
                print(str(exc), file=sys.stderr)
                return EXIT_DENIED
        report = validate_contract(contract, store.catalog())
        if not report.ok:
            print("ValidationFailed")
            for code, message in report.problems:
                print(f"{code}: {message}", file=sys.stderr)
            return EXIT_DENIED
    print(f"ok: {contract.contract_id}")
    return EXIT_OK


def _read_file(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None


def table_arg(arg: str) -> tuple[str, str]:
    """argparse type for `--table NAMESPACE.TABLE=CSVPATH`, in both CLIs."""
    if "=" not in arg:
        raise argparse.ArgumentTypeError(f"expected NAMESPACE.TABLE=CSVPATH, got {arg!r}")
    name, path = arg.split("=", 1)
    return name, path


def build_parser() -> argparse.ArgumentParser:
    # The shared flags ride on every leaf parser so they work before or
    # after the subcommand; SUPPRESS keeps leaves from clobbering them.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--endpoint", default=argparse.SUPPRESS, help="broker unix socket path")
    shared.add_argument("--token", default=argparse.SUPPRESS, help="bearer token for session ops")
    shared.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="print the broker's JSON result verbatim",
    )

    parser = argparse.ArgumentParser(
        prog="enclave-broker", description="Talk to the data access broker.", parents=[shared]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    contract = sub.add_parser("contract", help="manage data contracts")
    csub = contract.add_subparsers(dest="action", required=True)
    p = csub.add_parser("submit", parents=[shared], help="parse, validate, and store a contract")
    p.add_argument("file")
    p = csub.add_parser("activate", parents=[shared], help="start a contract's TTL")
    p.add_argument("contract_id")
    p = csub.add_parser("revoke", parents=[shared], help="kill a contract and its enclaves now")
    p.add_argument("contract_id")
    p.add_argument("--reason", default="")
    p = csub.add_parser("lint", parents=[shared], help="offline parse (and validate with --table)")
    p.add_argument("file")
    p.add_argument("--table", action="append", default=[], type=table_arg, metavar="NS.TBL=CSV")

    enclave = sub.add_parser("enclave", help="manage enclaves")
    esub = enclave.add_subparsers(dest="action", required=True)
    p = esub.add_parser(
        "broker", parents=[shared], help="define, provision, seal, and serve in one step"
    )
    p.add_argument("contract_id")

    session = sub.add_parser("session", help="manage gateway sessions")
    ssub = session.add_subparsers(dest="action", required=True)
    p = ssub.add_parser("open", parents=[shared], help="open a session on a Serving enclave")
    p.add_argument("enclave_id")
    p = ssub.add_parser("close", parents=[shared], help="close a session")
    p.add_argument("session_id")

    p = sub.add_parser("query", parents=[shared], help="run one statement in a session")
    p.add_argument("session_id")
    p.add_argument("statement")

    p = sub.add_parser("alerts", parents=[shared], help="list monitor alerts")
    p.add_argument("--rule")
    p.add_argument("--contract")
    p.add_argument("--enclave")
    p.add_argument("--since", type=int)
    p.add_argument("--until", type=int)

    audit = sub.add_parser("audit", help="export or verify the audit ledger")
    asub = audit.add_subparsers(dest="action", required=True)
    asub.add_parser("export", parents=[shared], help="print the ledger as JSON lines")
    asub.add_parser("verify", parents=[shared], help="re-verify the persisted hash chain")

    bg = sub.add_parser("bg", help="break-glass emergency access")
    bsub = bg.add_subparsers(dest="action", required=True)
    p = bsub.add_parser("request", parents=[shared], help="file an emergency access request")
    p.add_argument("file", help="contract template file")
    p.add_argument("--account", required=True)
    p.add_argument("--justification", default="")
    p = bsub.add_parser("approve", parents=[shared], help="add one approval")
    p.add_argument("request_id")
    p.add_argument("--approver", required=True)
    p = bsub.add_parser("deny", parents=[shared], help="deny a pending request")
    p.add_argument("request_id")

    clock = sub.add_parser("clock", help="control the logical clock")
    ksub = clock.add_subparsers(dest="action", required=True)
    p = ksub.add_parser("tick", parents=[shared], help="advance the logical clock")
    p.add_argument("seconds", type=int)

    sub.add_parser("sweep", parents=[shared], help="expire contracts and enclaves past their TTL")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    endpoint = getattr(args, "endpoint", None) or os.environ.get("ENCLAVE_BROKER_ENDPOINT")
    run = Run(endpoint, getattr(args, "token", None), getattr(args, "json", False))
    try:
        return _run_command(run, args)
    except TransportError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BROKER


def _run_command(run: Run, args) -> int:
    if args.command == "contract":
        if args.action == "lint":
            return _lint(args.file, args.table)
        if args.action == "submit":
            text = _read_file(args.file)
            if text is None:
                return EXIT_USAGE
            return run.call(
                "submit_contract",
                {"text": text},
                lambda r: print(f"submitted {r['contract_id']} ({r['status']})"),
            )
        if args.action == "activate":
            return run.call(
                "activate_contract",
                {"contract_id": args.contract_id},
                lambda r: print(
                    f"activated {r['contract_id']}; expires_at {r['expires_at']}; token {r['token']}"
                ),
            )
        if args.action == "revoke":
            return run.call(
                "revoke_contract",
                {"contract_id": args.contract_id, "reason": args.reason},
                lambda r: print(f"revoked {r['contract_id']}"),
            )
    if args.command == "enclave":
        return run.call(
            "broker_enclave",
            {"contract_id": args.contract_id},
            lambda r: print(f"enclave {r['enclave_id']} {r['state']}"),
        )
    if args.command == "session":
        if args.action == "open":
            return run.call(
                "open_session",
                {"enclave_id": args.enclave_id},
                lambda r: print(f"session {r['session_id']}"),
                token=run.token,
            )
        return run.call(
            "close_session",
            {"session_id": args.session_id},
            lambda r: print(f"closed {r['session_id']}"),
        )
    if args.command == "query":
        return run.call(
            "query", {"session_id": args.session_id, "text": args.statement}, _render_query
        )
    if args.command == "alerts":
        return run.call(
            "alerts",
            {
                "rule": args.rule,
                "contract_id": args.contract,
                "enclave_id": args.enclave,
                "since": args.since,
                "until": args.until,
            },
            _render_alerts,
        )
    if args.command == "audit":
        if args.action == "export":
            return run.call("audit_export", {}, _render_audit_export)
        return _audit_verify(run)
    if args.command == "bg":
        if args.action == "request":
            text = _read_file(args.file)
            if text is None:
                return EXIT_USAGE
            return run.call(
                "bg_request",
                {"account": args.account, "template": text, "justification": args.justification},
                lambda r: print(f"request {r['request_id']} ({r['status']})"),
            )
        if args.action == "approve":
            return run.call(
                "bg_approve",
                {"request_id": args.request_id, "approver": args.approver},
                _render_bg_approve,
            )
        return run.call(
            "bg_deny",
            {"request_id": args.request_id},
            lambda r: print(f"request {r['request_id']} ({r['status']})"),
        )
    if args.command == "clock":
        return run.call("tick", {"seconds": args.seconds}, lambda r: print(f"now {r['now']}"))
    if args.command == "sweep":
        return run.call("sweep", {}, _render_sweep)
    return EXIT_USAGE  # unreachable with required subparsers


def _render_bg_approve(result: dict):
    line = f"request {result['request_id']} ({result['status']})"
    if result["status"] == "Activated":
        line += f"; enclave {result['enclave_id']}; token {result['token']}"
    print(line)


def _audit_verify(run: Run) -> int:
    if not run.endpoint:
        print("no endpoint; pass --endpoint or set ENCLAVE_BROKER_ENDPOINT", file=sys.stderr)
        return EXIT_USAGE
    response = request(run.endpoint, "audit_verify", {})
    if not response.get("ok"):
        error = response.get("error", {})
        if run.as_json:
            print(canonical_json(error))
        else:
            print(error.get("code", "BrokerError"))
            print(error.get("message", ""), file=sys.stderr)
        return EXIT_BROKER
    result = response["result"]
    if run.as_json:
        print(canonical_json(result))
        return EXIT_OK if result["verified"] else EXIT_DENIED
    if result["verified"]:
        print(f"Ok ({result['events']} events)")
        return EXIT_OK
    print(f"FirstBadSeq: {result['first_bad_seq']}")
    return EXIT_DENIED


if __name__ == "__main__":
    raise SystemExit(main())
