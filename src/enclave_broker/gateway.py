"""The gateway: the single mediated path to enclave data.

Sessions are bearer-token handles onto one Serving enclave. A session
holds no copy of its enclave's state: it is dead once closed, or once
its enclave leaves Serving. Every statement, allowed or denied or even
unparseable, is emitted as exactly one audit event, which the monitor
then scores; there is no unlogged path. Execution reads only the
enclave's sealed segments, never the upstream store.
"""

from __future__ import annotations

import hmac
import secrets
from dataclasses import dataclass

from .audit import QUERY_DENIED, QUERY_EXECUTED, SESSION_CLOSED, SESSION_OPENED
from .canonical import EncodedRows
from .contracts import DataContract, Grant, is_live
from .enclave import SERVING, EnclaveInstance
from .errors import BadToken, BrokerError, ContractExpired, EnclaveNotServing, ParseError, SessionDead
from .monitor import KIND_INVALID
from .query import COPY_INTO, SELECT, SHOW_TABLES, QueryAst, parse_query
from .store import compile_predicate
from .store import eval_predicate  # noqa: F401  benches/spans.py RowCounter patches this name

DENY_UNKNOWN_TABLE = "UnknownTable"
DENY_COLUMN_OUT_OF_SCOPE = "ColumnOutOfScope"
DENY_STATEMENT_FORBIDDEN = "StatementForbidden"
DENY_SESSION_DEAD = "SessionDead"
DENY_CONTRACT_EXPIRED = "ContractExpired"


@dataclass
class Session:
    session_id: str
    enclave_id: str
    contract_id: str
    closed: bool = False


@dataclass(frozen=True)
class QueryResult:
    columns: tuple[str, ...]
    rows: EncodedRows | tuple[tuple, ...]
    truncated: bool

    def to_json(self) -> dict:
        """Wire form. "rows" is passed through as it is, never rebuilt.
        A SELECT result is `EncodedRows`: the rows' canonical JSON, which
        the reply writer splices in. SHOW TABLES answers a tuple of
        1-tuples of table names, which JSON encodes as arrays."""
        return {"columns": list(self.columns), "rows": self.rows, "truncated": self.truncated}


class DenialError(BrokerError):
    """A denied statement; its code is the gateway's deny code."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(message)


def _grant_for_table(c: DataContract, table: str) -> tuple[int, Grant] | None:
    for i, g in enumerate(c.grants):
        if g.table_name() == table:
            return i, g
    return None


def authorize(ast: QueryAst, c: DataContract, s: Session, e: EnclaveInstance, now: int) -> str | None:
    """Score one parsed statement against contract, session and enclave
    state; returns the deny code, or None to allow.

    Checks run against the contract even though the segments already
    exclude everything out of scope; two fences, one decision.
    """
    if ast.kind == COPY_INTO:
        return DENY_STATEMENT_FORBIDDEN
    if s.closed:
        return DENY_SESSION_DEAD
    if not is_live(c, now):
        return DENY_CONTRACT_EXPIRED
    if e.state != SERVING:
        return DENY_SESSION_DEAD
    if ast.kind == SHOW_TABLES:
        return None
    found = _grant_for_table(c, ast.table)
    if found is None:
        return DENY_UNKNOWN_TABLE
    _, grant = found
    if grant.columns is not None:
        granted = set(grant.columns)
        for col in ast.named_columns():
            if col not in granted:
                return DENY_COLUMN_OUT_OF_SCOPE
    return None


class QueryGateway:
    """Session registry plus the execute path; owns nothing upstream.

    `emit(actor, kind, payload)` is the broker's one ledger writer.
    """

    def __init__(self, emit):
        self._emit = emit
        self.sessions: dict[str, Session] = {}

    def open_session(
        self,
        enclave: EnclaveInstance,
        contract: DataContract,
        expected_token: str | None,
        presented_token: str,
        now: int,
    ) -> Session:
        if enclave.state != SERVING:
            raise EnclaveNotServing(f"enclave {enclave.enclave_id} is {enclave.state}")
        # surrogatepass: a JSON string may hold a lone surrogate, which
        # must be a wrong token rather than an encoding error.
        if expected_token is None or not hmac.compare_digest(
            presented_token.encode("utf-8", "surrogatepass"), expected_token.encode("utf-8")
        ):
            raise BadToken("token does not match the contract principal's credential")
        if not is_live(contract, now):
            raise ContractExpired(f"contract {contract.contract_id} is not live")
        s = Session(
            session_id=f"ses-{secrets.token_hex(6)}",
            enclave_id=enclave.enclave_id,
            contract_id=contract.contract_id,
        )
        # The append is the commit point: a session the ledger cannot
        # record is never registered.
        self._emit(
            contract.principal,
            SESSION_OPENED,
            {"session_id": s.session_id, "enclave_id": s.enclave_id, "contract_id": s.contract_id},
        )
        self.sessions[s.session_id] = s
        return s

    def close_session(self, s: Session, actor: str) -> None:
        if s.closed:
            raise SessionDead(f"session {s.session_id} already closed")
        self._emit(
            actor,
            SESSION_CLOSED,
            {"session_id": s.session_id, "enclave_id": s.enclave_id, "contract_id": s.contract_id},
        )
        s.closed = True

    def execute(
        self,
        s: Session,
        enclave: EnclaveInstance,
        contract: DataContract,
        text: str,
        now: int,
    ) -> QueryResult:
        """parse, authorize, evaluate; always audited, so always monitored."""
        try:
            ast = parse_query(text)
        except ParseError as exc:
            self._report(s, contract, text, KIND_INVALID, False, 0, error=str(exc))
            raise
        star = ast.kind == SELECT and ast.columns is None
        code = authorize(ast, contract, s, enclave, now)
        result = None
        if code is None:
            if ast.kind == SHOW_TABLES:
                result = self._show_tables(contract)
            else:
                result, code = self._evaluate_select(ast, contract, enclave)
        rows_returned = len(result.rows) if result is not None else 0
        self._report(s, contract, text, ast.kind, star, rows_returned, deny_code=code)
        if code is not None:
            raise DenialError(code, f"{code}: {text!r}")
        return result

    def _show_tables(self, contract: DataContract) -> QueryResult:
        names: list[str] = []
        for g in contract.grants:
            name = g.table_name()
            if name not in names:
                names.append(name)
        return QueryResult(("table",), tuple((n,) for n in names), False)

    def _evaluate_select(
        self, ast: QueryAst, contract: DataContract, enclave: EnclaveInstance
    ) -> tuple[QueryResult | None, str | None]:
        """The result, or the deny code of the segment-column fence."""
        index, grant = _grant_for_table(contract, ast.table)
        segment = enclave.segments[index]
        seg_cols = {col: i for i, col in enumerate(segment.columns)}
        for col in ast.named_columns():
            if col not in seg_cols:
                return None, DENY_COLUMN_OUT_OF_SCOPE
        out_cols = segment.columns if ast.columns is None else ast.columns
        assert set(out_cols) <= set(segment.columns)
        schema = tuple(zip(segment.columns, segment.column_types))
        caps = [n for n in (ast.limit, grant.row_limit) if n is not None]
        cap = min(caps) if caps else None
        terms = compile_predicate(schema, ast.predicate)
        rows, truncated = segment.select([seg_cols[c] for c in out_cols], terms, cap)
        return QueryResult(tuple(out_cols), rows, truncated), None

    def _report(
        self,
        s: Session,
        contract: DataContract,
        text: str,
        kind: str,
        star: bool,
        rows_returned: int,
        deny_code: str | None = None,
        error: str | None = None,
    ):
        """Emit the statement's one QueryExecuted or QueryDenied event."""
        payload = {
            "session_id": s.session_id,
            "enclave_id": s.enclave_id,
            "contract_id": s.contract_id,
            "statement_kind": kind,
            "statement": text,
            "rows_returned": rows_returned,
            "select_star": star,
        }
        if deny_code is not None:
            payload["deny_code"] = deny_code
        if error is not None:
            payload["error"] = error
        denied = deny_code is not None or error is not None
        self._emit(contract.principal, QUERY_DENIED if denied else QUERY_EXECUTED, payload)
