"""Operator CLI: one subcommand per broker protocol op, each a row of `COMMANDS`.

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
from typing import Callable, NamedTuple

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


def _render_query(result: dict) -> str:
    lines = [", ".join(result["columns"])]
    lines += ["\t".join(str(cell) for cell in row) for row in result["rows"]]
    if result["truncated"]:
        lines.append("(truncated)")
    return "\n".join(lines)


def _render_alerts(result: dict) -> str:
    if not result["alerts"]:
        return "no alerts"
    return "\n".join(
        f"{a['alert_id']}\t{a['rule']}\t{a['severity']}\t"
        f"session={a['session_id']}\tcontract={a['contract_id']}\tt={a['timestamp']}"
        for a in result["alerts"]
    )


def _render_sweep(result: dict) -> str:
    return (
        f"expired contracts: {', '.join(result['expired']) or '-'}\n"
        f"expired enclaves: {', '.join(result['expired_enclaves']) or '-'}\n"
        f"break-glass auto-revoked: {', '.join(result['bg_auto_revoked']) or '-'}"
    )


def _render_bg(result: dict) -> str:
    line = f"request {result['request_id']} ({result['status']})"
    if result["status"] == "Activated":
        line += f"; enclave {result['enclave_id']}; token {result['token']}"
    return line


def _render_verify(result: dict) -> str:
    if result["verified"]:
        return f"Ok ({result['events']} events)"
    return f"FirstBadSeq: {result['first_bad_seq']}"


def _lint(path: str, tables: list[tuple[str, str]]) -> int:
    """Offline check: parse, and validate when table CSVs are given."""
    text = _read_file(path)
    if text is None:
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


class _FilePath(str):
    """A path argument whose file's text is sent in its place."""


class Command(NamedTuple):
    path: str  # "group leaf", or a top-level leaf
    help: str
    op: str | None  # None: the offline `contract lint`
    args: tuple[tuple[str, str | None, dict], ...]  # (CLI name, op arg, argparse keywords)
    render: Callable[[dict], str] | None  # the text printed for an ok result


_GROUPS = {
    "contract": "manage data contracts",
    "enclave": "manage enclaves",
    "session": "manage gateway sessions",
    "audit": "export or verify the audit ledger",
    "bg": "break-glass emergency access",
    "clock": "control the logical clock",
}

COMMANDS = (
    Command(
        "contract submit", "parse, validate, and store a contract", "submit_contract",
        (("file", "text", {"type": _FilePath}),),
        lambda r: f"submitted {r['contract_id']} ({r['status']})",
    ),
    Command(
        "contract activate", "start a contract's TTL", "activate_contract",
        (("contract_id", "contract_id", {}),),
        lambda r: f"activated {r['contract_id']}; expires_at {r['expires_at']}; token {r['token']}",
    ),
    Command(
        "contract revoke", "kill a contract and its enclaves now", "revoke_contract",
        (("contract_id", "contract_id", {}), ("--reason", "reason", {"default": ""})),
        lambda r: f"revoked {r['contract_id']}",
    ),
    Command(
        "contract lint", "offline parse (and validate with --table)", None,
        (
            ("file", None, {}),
            ("--table", None, {"action": "append", "default": [], "type": table_arg, "metavar": "NS.TBL=CSV"}),
        ),
        None,
    ),
    Command(
        "enclave broker", "define, provision, seal, and serve in one step", "broker_enclave",
        (("contract_id", "contract_id", {}),),
        lambda r: f"enclave {r['enclave_id']} {r['state']}",
    ),
    Command(
        "session open", "open a session on a Serving enclave", "open_session",
        (("enclave_id", "enclave_id", {}),),
        lambda r: f"session {r['session_id']}",
    ),
    Command(
        "session close", "close a session", "close_session",
        (("session_id", "session_id", {}),),
        lambda r: f"closed {r['session_id']}",
    ),
    Command(
        "query", "run one statement in a session", "query",
        (("session_id", "session_id", {}), ("statement", "text", {})),
        _render_query,
    ),
    Command(
        "alerts", "list monitor alerts", "alerts",
        (
            ("--rule", "rule", {}),
            ("--contract", "contract_id", {}),
            ("--enclave", "enclave_id", {}),
            ("--since", "since", {"type": int}),
            ("--until", "until", {"type": int}),
        ),
        _render_alerts,
    ),
    Command(
        "audit export", "print the ledger as JSON lines", "audit_export", (),
        lambda r: "\n".join(canonical_json(event) for event in r["events"]),
    ),
    Command("audit verify", "re-verify the persisted hash chain", "audit_verify", (), _render_verify),
    Command(
        "bg request", "file an emergency access request", "bg_request",
        (
            ("file", "template", {"type": _FilePath, "help": "contract template file"}),
            ("--account", "account", {"required": True}),
            ("--justification", "justification", {"default": ""}),
        ),
        _render_bg,
    ),
    Command(
        "bg approve", "add one approval", "bg_approve",
        (("request_id", "request_id", {}), ("--approver", "approver", {"required": True})),
        _render_bg,
    ),
    Command("bg deny", "deny a pending request", "bg_deny", (("request_id", "request_id", {}),), _render_bg),
    Command(
        "clock tick", "advance the logical clock", "tick",
        (("seconds", "seconds", {"type": int}),),
        lambda r: f"now {r['now']}",
    ),
    Command("sweep", "expire contracts and enclaves past their TTL", "sweep", (), _render_sweep),
)


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
    subparsers = {"": parser.add_subparsers(dest="command", required=True)}
    for command in COMMANDS:
        group, _, name = command.path.rpartition(" ")
        if group not in subparsers:
            group_parser = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = group_parser.add_subparsers(dest="action", required=True)
        leaf = subparsers[group].add_parser(name, parents=[shared], help=command.help)
        for flag, _, keywords in command.args:
            leaf.add_argument(flag, **keywords)
        leaf.set_defaults(leaf=command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args.leaf, args)
    except TransportError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BROKER


def _dispatch(command: Command, args) -> int:
    if command.op is None:
        return _lint(args.file, args.table)
    op_args = {}
    for flag, name, _ in command.args:
        value = getattr(args, flag.lstrip("-"))
        if isinstance(value, _FilePath):
            value = _read_file(value)
            if value is None:
                return EXIT_USAGE
        op_args[name] = value
    endpoint = getattr(args, "endpoint", None) or os.environ.get("ENCLAVE_BROKER_ENDPOINT")
    if not endpoint:
        print("no endpoint; pass --endpoint or set ENCLAVE_BROKER_ENDPOINT", file=sys.stderr)
        return EXIT_USAGE
    token = getattr(args, "token", None) if command.op == "open_session" else None
    response = request(endpoint, command.op, op_args, token)
    as_json = getattr(args, "json", False)
    if response.get("ok"):
        result = response["result"]
        text = canonical_json(result) if as_json else command.render(result)
        if text:
            print(text)
        # `audit verify` answering a broken chain is a refusal, not a failure.
        return EXIT_DENIED if result.get("verified") is False else EXIT_OK
    error = response.get("error", {})
    code = error.get("code", "BrokerError")
    if as_json:
        print(canonical_json(error))
    else:
        print(code)
        print(error.get("message", ""), file=sys.stderr)
    return EXIT_DENIED if code in POLICY_CODES else EXIT_BROKER


if __name__ == "__main__":
    raise SystemExit(main())
