"""Break-glass: quorum-gated, time-boxed emergency access.

Nobody holds standing emergency rights. A responder files a request
carrying a contract template; approval by a quorum of other people
activates it for a short, pre-defined window, and the sweep tears it
all down again the moment the window closes. Activation itself is a
critical alert, never a quiet event.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field, replace
from typing import Callable

from .contracts import DRAFT, ORIGIN_BREAK_GLASS, DataContract, validate_contract
from .errors import (
    BadConfig,
    DuplicateApproval,
    SelfApproval,
    StateError,
    UnknownAccount,
    UnknownEntity,
    ValidationFailed,
)
from .model import SchemaCatalog

PENDING = "Pending"
ACTIVATED = "Activated"
DENIED = "Denied"
AUTO_REVOKED = "AutoRevoked"

DEFAULT_QUORUM = 2
DEFAULT_ACTIVATION_WINDOW = 900


@dataclass
class BreakGlassRequest:
    request_id: str
    account_id: str
    justification: str
    template: DataContract  # Draft, origin BreakGlass, principal = account
    quorum: int
    activation_window: int  # seconds the activated contract lives
    approvals: list[str] = field(default_factory=list)
    status: str = PENDING
    activated_contract_id: str | None = None
    rank: int = 0  # place in request order


Record = Callable[[BreakGlassRequest], None]


class BreakGlassService:
    """Request and approval state; the broker composes activation around it.

    Each op that changes a request checks everything first, then calls
    its `record` with the request, then commits. The broker's `record`
    appends the op's ledger event, so a change the ledger refuses is
    never made.
    """

    def __init__(self, quorum: int = DEFAULT_QUORUM, activation_window: int = DEFAULT_ACTIVATION_WINDOW):
        if quorum < 2:
            raise BadConfig("break-glass quorum must be at least 2")
        if activation_window <= 0:
            raise BadConfig("activation window must be positive")
        self.quorum = quorum
        self.activation_window = activation_window
        self.accounts: dict[str, str] = {}
        self.requests: dict[str, BreakGlassRequest] = {}
        # The Activated requests, in request order: all the sweep reads.
        self.activated: dict[str, BreakGlassRequest] = {}

    def register_account(self, account_id: str):
        self.accounts[account_id] = account_id

    def request_access(
        self,
        account_id: str,
        template: DataContract,
        justification: str,
        catalog: SchemaCatalog,
        record: Record,
    ) -> BreakGlassRequest:
        if account_id not in self.accounts:
            raise UnknownAccount(f"no break-glass account {account_id!r}")
        if template.status != DRAFT:
            raise ValidationFailed("template must be a Draft contract")
        if template.principal != account_id:
            raise ValidationFailed(
                f"template principal {template.principal!r} must be the requesting account"
            )
        report = validate_contract(template, catalog)
        if not report.ok:
            problems = "; ".join(f"{code}: {msg}" for code, msg in report.problems)
            raise ValidationFailed(f"template failed validation: {problems}")
        req = BreakGlassRequest(
            request_id=f"req-{secrets.token_hex(6)}",
            account_id=account_id,
            justification=justification,
            template=replace(template, origin=ORIGIN_BREAK_GLASS),
            quorum=self.quorum,
            activation_window=self.activation_window,
            rank=len(self.requests),
        )
        record(req)
        self.requests[req.request_id] = req
        return req

    def approve(self, request_id: str, approver: str, record: Record) -> tuple[BreakGlassRequest, bool]:
        """Record one approval; returns (request, quorum_met).

        Only registered accounts approve, the requester can never be an
        approver, and each approver counts once. Meeting the quorum flips
        nothing here by itself; the broker performs the activation in the
        same atomic step. `record` sees the request before the approval
        is added.

        A request still Pending with its quorum met is one whose
        activation the ledger refused. A repeat approval of it records
        nothing and returns `quorum_met` again, so the broker retries the
        activation; without that, only a further distinct account could.
        """
        req = self._get(request_id)
        if req.status != PENDING:
            raise StateError(f"request {request_id} is {req.status}")
        if approver not in self.accounts:
            raise UnknownAccount(f"no break-glass account {approver!r}")
        if approver == req.account_id:
            raise SelfApproval("requester cannot approve their own request")
        if approver in req.approvals:
            if len(req.approvals) >= req.quorum:
                return req, True
            raise DuplicateApproval(f"{approver} already approved {request_id}")
        record(req)
        req.approvals.append(approver)
        return req, len(req.approvals) >= req.quorum

    def mark_activated(self, request_id: str, contract_id: str):
        req = self._get(request_id)
        req.status = ACTIVATED
        req.activated_contract_id = contract_id
        # An activation can overtake an earlier request: sort it back.
        self.activated[request_id] = req
        self.activated = dict(sorted(self.activated.items(), key=lambda item: item[1].rank))

    def deny(self, request_id: str, record: Record) -> BreakGlassRequest:
        req = self._get(request_id)
        if req.status != PENDING:
            raise StateError(f"request {request_id} is {req.status}")
        record(req)
        req.status = DENIED
        return req

    def sweep(self, now: int, contract_is_live, record: Record) -> list[BreakGlassRequest]:
        """Auto-revoke every Activated request whose contract is no longer
        live, in request order, each only once its own `record` has
        returned. Reads `activated` only, not every request ever made."""
        revoked = []
        for req in list(self.activated.values()):
            if not contract_is_live(req.activated_contract_id, now):
                record(req)
                req.status = AUTO_REVOKED
                del self.activated[req.request_id]
                revoked.append(req)
        return revoked

    def _get(self, request_id: str) -> BreakGlassRequest:
        if request_id not in self.requests:
            raise UnknownEntity(f"no break-glass request {request_id!r}")
        return self.requests[request_id]
