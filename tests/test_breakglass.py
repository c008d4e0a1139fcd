"""Break-glass requests: quorum rules, approvals, auto-revocation."""

from __future__ import annotations

import pytest

from enclave_broker.breakglass import (
    ACTIVATED,
    AUTO_REVOKED,
    DENIED,
    PENDING,
    BreakGlassService,
)
from enclave_broker.contracts import ORIGIN_BREAK_GLASS, Grant, activate
from enclave_broker.errors import (
    BadConfig,
    DuplicateApproval,
    SelfApproval,
    StateError,
    StorageFailure,
    UnknownAccount,
    UnknownEntity,
    ValidationFailed,
)
from enclave_broker.model import SchemaCatalog

from conftest import ORDERS_SCHEMA
from test_contracts import draft

CATALOG = SchemaCatalog({"warehouse.orders": ORDERS_SCHEMA})


def unrecorded(req):
    """A `record` for service-level tests, which keep no ledger."""


def service(**kw):
    svc = BreakGlassService(**kw)
    for acct in ("alice", "bob", "carol", "dave"):
        svc.register_account(acct)
    return svc


def file_request(svc, account="alice", **kw):
    template = draft(principal=account, **kw)
    return svc.request_access(account, template, "prod incident", CATALOG, unrecorded)


def test_config_rejects_weak_quorum():
    with pytest.raises(BadConfig):
        BreakGlassService(quorum=1)
    with pytest.raises(BadConfig):
        BreakGlassService(quorum=0)
    with pytest.raises(BadConfig):
        BreakGlassService(activation_window=0)
    with pytest.raises(BadConfig):
        BreakGlassService(activation_window=-5)


def test_request_requires_registered_account():
    svc = service()
    with pytest.raises(UnknownAccount):
        svc.request_access("mallory", draft(principal="mallory"), "x", CATALOG, unrecorded)


def test_request_requires_draft_template():
    svc = service()
    with pytest.raises(ValidationFailed):
        svc.request_access("alice", activate(draft(principal="alice"), 0), "x", CATALOG, unrecorded)


def test_request_requires_matching_principal():
    svc = service()
    with pytest.raises(ValidationFailed):
        svc.request_access("alice", draft(principal="bob"), "x", CATALOG, unrecorded)


def test_request_validates_template():
    svc = service()
    bad = draft(principal="alice", grants=(Grant("warehouse.ghost", None),))
    with pytest.raises(ValidationFailed) as exc:
        svc.request_access("alice", bad, "x", CATALOG, unrecorded)
    assert "UnknownSource" in str(exc.value)


def test_request_is_stamped_and_tracked():
    svc = service(quorum=3, activation_window=120)
    req = file_request(svc)
    assert req.status == PENDING
    assert req.template.origin == ORIGIN_BREAK_GLASS
    assert req.quorum == 3
    assert req.activation_window == 120
    assert req.approvals == []
    assert svc.requests[req.request_id] is req


def test_approvals_accumulate_to_quorum():
    svc = service(quorum=3)
    req = file_request(svc)
    r, reached = svc.approve(req.request_id, "bob", unrecorded)
    assert (r.approvals, reached) == (["bob"], False)
    r, reached = svc.approve(req.request_id, "carol", unrecorded)
    assert (r.approvals, reached) == (["bob", "carol"], False)
    r, reached = svc.approve(req.request_id, "dave", unrecorded)
    assert (r.approvals, reached) == (["bob", "carol", "dave"], True)


def test_quorum_alone_activates_nothing():
    # The service only counts hands; activation is a separate, atomic
    # step layered on top, so no request self-activates.
    svc = service()
    req = file_request(svc)
    _, reached = svc.approve(req.request_id, "bob", unrecorded)
    assert not reached
    _, reached = svc.approve(req.request_id, "carol", unrecorded)
    assert reached
    assert req.status == PENDING
    assert req.activated_contract_id is None


def test_requester_cannot_self_approve():
    svc = service()
    req = file_request(svc)
    with pytest.raises(SelfApproval):
        svc.approve(req.request_id, "alice", unrecorded)
    assert req.approvals == []


def test_approver_must_be_registered():
    # Two made-up names must not make a quorum.
    svc = service()
    req = file_request(svc)
    for name in ("mallory", "mallory2"):
        with pytest.raises(UnknownAccount):
            svc.approve(req.request_id, name, unrecorded)
    assert req.approvals == []
    assert req.status == PENDING


def test_each_approver_counts_once():
    svc = service(quorum=3)
    req = file_request(svc)
    svc.approve(req.request_id, "bob", unrecorded)
    with pytest.raises(DuplicateApproval):
        svc.approve(req.request_id, "bob", unrecorded)
    assert req.approvals == ["bob"]


def test_unknown_request_rejected():
    svc = service()
    with pytest.raises(UnknownEntity):
        svc.approve("req-nope", "bob", unrecorded)
    with pytest.raises(UnknownEntity):
        svc.deny("req-nope", unrecorded)


def test_settled_requests_are_final():
    svc = service()
    denied = file_request(svc)
    svc.deny(denied.request_id, unrecorded)
    assert denied.status == DENIED
    with pytest.raises(StateError):
        svc.approve(denied.request_id, "bob", unrecorded)
    with pytest.raises(StateError):
        svc.deny(denied.request_id, unrecorded)

    active = file_request(svc, account="bob")
    svc.mark_activated(active.request_id, "bg-1")
    assert active.status == ACTIVATED
    assert active.activated_contract_id == "bg-1"
    with pytest.raises(StateError):
        svc.approve(active.request_id, "carol", unrecorded)
    with pytest.raises(StateError):
        svc.deny(active.request_id, unrecorded)


def test_sweep_auto_revokes_dead_contracts():
    svc = service()
    live = file_request(svc, account="alice")
    dead = file_request(svc, account="bob")
    pending = file_request(svc, account="carol")
    svc.mark_activated(live.request_id, "bg-live")
    svc.mark_activated(dead.request_id, "bg-dead")

    def refuse(req):
        raise StorageFailure("audit append failed: disk full")

    # A request is revoked only once its record returns.
    with pytest.raises(StorageFailure):
        svc.sweep(1000, lambda cid, now: cid == "bg-live", refuse)
    assert dead.status == ACTIVATED
    recorded = []
    revoked = svc.sweep(1000, lambda cid, now: cid == "bg-live", recorded.append)
    assert revoked == recorded == [dead]
    assert dead.status == AUTO_REVOKED
    assert live.status == ACTIVATED
    assert pending.status == PENDING
    # A second sweep has nothing left to do.
    assert svc.sweep(2000, lambda cid, now: cid == "bg-live", recorded.append) == []
    assert recorded == [dead]
