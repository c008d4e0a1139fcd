"""The sweep and revoke read only what is due, and answer as the walks did.

The broker keeps a deadline heap of Active contracts, the open enclaves
of each contract, and the dead contracts with an enclave still open.
These tests drive random op sequences, with refused ledger appends,
and check every sweep and revoke against `reference_sweep`, the walk
over everything ever made; and they check that a sweep or revoke with
little due reads nothing that is not due.
"""

from __future__ import annotations

import json
import tempfile
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from enclave_broker import enclave as enclave_mod
from enclave_broker.breakglass import ACTIVATED
from enclave_broker.contracts import ACTIVE
from enclave_broker.errors import BrokerError, StorageFailure

from conftest import C1_TEXT, make_core
from reference_sweep import Reference
from test_broker import BG_TEMPLATE, call, ok

ACCOUNTS = ("alice", "bob", "carol")
BG_WINDOW = 6


def contract_text(contract_id: str, ttl: int) -> str:
    return C1_TEXT.replace('"c1"', f'"{contract_id}"').replace("3600s", f"{ttl}s")


def refuser(k):
    """`refuse(kind, payload)` that refuses the k-th append it is asked
    about, counting from 0; with k None it refuses none."""
    seen = count()

    def refuse(kind, payload):
        return next(seen) == k

    return refuse


def outcome(resp):
    return ("ok", resp["result"]) if resp["ok"] else ("error", resp["error"]["code"])


def predict(core, op, args, refuse):
    """The reply and appended events the reference walk predicts for
    `op` on the core as it stands now."""
    ref = Reference(core, refuse)
    try:
        predicted = ("ok", getattr(ref, op)(**args))
    except BrokerError as exc:
        predicted = ("error", exc.code)
    return predicted, ref.events


def run(core, op, args, refuse):
    """`op` through `handle`, each ledger append first put to `refuse`
    as the existing refusal tests do; returns the outcome and the
    events it appended."""
    before = len(core.ledger)
    append = core.ledger.append

    def refusing(timestamp, actor, kind, payload):
        if refuse(kind, payload):
            raise StorageFailure("audit append failed: disk full")
        return append(timestamp, actor, kind, payload)

    core.ledger.append = refusing
    try:
        resp = call(core, op, args)
    finally:
        core.ledger.append = append
    events = [(e.actor, e.kind, e.payload) for e in list(core.ledger.events())[before:]]
    return outcome(resp), events


def check_indexes(core):
    """The indexes hold what a walk over everything finds."""
    open_by_contract = {}
    for e in core.enclaves.values():
        if e.state not in enclave_mod.TERMINAL:
            open_by_contract.setdefault(e.contract_id, []).append(e.enclave_id)
    assert {cid: list(held) for cid, held in core._open.items()} == open_by_contract
    assert core._dead == {cid for cid in open_by_contract if core.contracts[cid].status != ACTIVE}
    current = [cid for _, _, cid in core._deadlines if core.contracts[cid].status == ACTIVE]
    assert sorted(current) == sorted(cid for cid, c in core.contracts.items() if c.status == ACTIVE)
    activated = [rid for rid, req in core.break_glass.requests.items() if req.status == ACTIVATED]
    assert list(core.break_glass.activated) == activated


# Indexes count back from the latest contract or request, so that most
# ops land on one that is still in play.
OPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from([3, 5, 8])),
    st.tuples(st.just("contract"), st.sampled_from([3, 5, 8]), st.integers(1, 3)),
    st.tuples(st.just("activate"), st.integers(0, 3)),
    st.tuples(st.just("broker"), st.integers(0, 3)),
    st.tuples(st.just("revoke"), st.integers(0, 5)),
    st.tuples(st.just("tick"), st.sampled_from([0, 1, 3, 8, 20])),
    st.tuples(st.just("sweep"), st.sampled_from([0, 2, 5, 9])),
    st.tuples(st.just("bg_request"), st.just(0)),
    st.tuples(st.just("bg_approve"), st.integers(0, 2), st.sampled_from(ACCOUNTS)),
)
REFUSE = st.one_of(st.none(), st.none(), st.none(), st.integers(0, 3))
STEPS = st.lists(st.tuples(OPS, REFUSE), min_size=30, max_size=60)


@settings(max_examples=60)
@given(STEPS)
def test_sweep_and_revoke_answer_as_the_walk_over_everything(steps):
    with tempfile.TemporaryDirectory() as data_dir:
        core = make_core(data_dir, bg_accounts=ACCOUNTS, bg_window=BG_WINDOW)
        try:
            drive(core, steps)
        finally:
            core.close()


def drive(core, steps):
    ids: list[str] = []  # every contract id submitted or requested, in order
    requests: list[str] = []
    for (op, *params), k in steps:
        pick = ids[-1 - params[0] % len(ids)] if op in ("activate", "broker", "revoke") and ids else "nope"
        if op == "submit":
            cid = f"c{len(ids)}"
            run(core, "submit_contract", {"text": contract_text(cid, params[0])}, refuser(k))
            ids.append(cid)
        elif op == "contract":
            # Submit, activate and broker enclaves, the append refusal
            # put to each enclave in turn.
            cid = f"c{len(ids)}"
            ok(core, "submit_contract", {"text": contract_text(cid, params[0])})
            ok(core, "activate_contract", {"contract_id": cid})
            ids.append(cid)
            for _ in range(params[1]):
                run(core, "broker_enclave", {"contract_id": cid}, refuser(k))
        elif op == "activate":
            run(core, "activate_contract", {"contract_id": pick}, refuser(k))
        elif op == "broker":
            run(core, "broker_enclave", {"contract_id": pick}, refuser(k))
        elif op == "tick":
            ok(core, "tick", {"seconds": params[0]})
        elif op == "bg_request":
            cid = f"bg{len(ids)}"
            resp, _ = run(
                core,
                "bg_request",
                {"account": "alice", "template": BG_TEMPLATE.replace("bg-incident-42", cid)},
                refuser(k),
            )
            ids.append(cid)
            if resp[0] == "ok":
                requests.append(resp[1]["request_id"])
        elif op == "bg_approve":
            if requests:
                rid = requests[-1 - params[0] % len(requests)]
                run(core, "bg_approve", {"request_id": rid, "approver": params[1]}, refuser(k))
        else:
            if op == "sweep":
                ok(core, "tick", {"seconds": params[0]})
            args = {} if op == "sweep" else {"contract_id": pick, "reason": "done"}
            name = "sweep" if op == "sweep" else "revoke_contract"
            predicted, expected = predict(core, name, args, refuser(k))
            got, appended = run(core, name, args, refuser(k))
            assert got == predicted
            assert appended == expected
        check_indexes(core)


def test_a_contract_activated_after_the_clock_reading_is_expired_as_the_walk_did(tmp_path):
    core = make_core(tmp_path)
    ok(core, "submit_contract", {"text": C1_TEXT})
    ok(core, "tick", {"seconds": 100})
    ok(core, "activate_contract", {"contract_id": "c1"})
    core.close()
    # A restart from a clock.json whose last write failed reads an
    # earlier time than the activation.
    (tmp_path / "clock.json").write_text(json.dumps({"now": 50}), encoding="utf-8")
    core = make_core(tmp_path)
    predicted, expected = predict(core, "sweep", {}, refuser(None))
    assert predicted == ("ok", {"expired": ["c1"], "expired_enclaves": [], "bg_auto_revoked": []})
    assert run(core, "sweep", {}, refuser(None)) == (predicted, expected)
    assert ok(core, "sweep") == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": []}


class Watched(dict):
    """A dict that records each key looked up in it and refuses to be
    walked."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read: list[str] = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)

    def __iter__(self):
        raise AssertionError("walked every entry")

    keys = values = items = __iter__


def test_a_sweep_or_revoke_reads_only_what_is_due(tmp_path):
    core = make_core(tmp_path, bg_accounts=ACCOUNTS)
    live = []
    for i in range(200):
        cid = f"live{i}"
        ok(core, "submit_contract", {"text": contract_text(cid, 3600 + i)})
        ok(core, "activate_contract", {"contract_id": cid})
        live.append((cid, ok(core, "broker_enclave", {"contract_id": cid})["enclave_id"]))
    for i in range(200):
        cid = f"gone{i}"
        ok(core, "submit_contract", {"text": contract_text(cid, 7200)})
        ok(core, "activate_contract", {"contract_id": cid})
        ok(core, "broker_enclave", {"contract_id": cid})
        ok(core, "revoke_contract", {"contract_id": cid})
    for _ in range(100):
        template = BG_TEMPLATE.replace("bg-incident-42", "bg")
        rid = ok(core, "bg_request", {"account": "alice", "template": template})["request_id"]
        ok(core, "bg_deny", {"request_id": rid})
    ok(core, "sweep")
    contracts = core.contracts = Watched(core.contracts)
    core.enclaves = Watched(core.enclaves)
    core.break_glass.requests = Watched(core.break_glass.requests)

    assert core.sweep() == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": []}
    assert contracts.read == []
    cid, enclave_id = live[150]
    assert core.revoke_contract(cid) == {"contract_id": cid, "status": "Revoked", "revoked_enclaves": [enclave_id]}
    assert set(contracts.read) == {cid}
    del contracts.read[:]
    assert core.sweep() == {"expired": [], "expired_enclaves": [], "bg_auto_revoked": []}
    # The first live contract falls due alone: the sweep retires it and
    # its enclave and reads no other contract.
    ok(core, "tick", {"seconds": 3600})
    first, first_enclave = live[0]
    assert core.sweep() == {"expired": [first], "expired_enclaves": [first_enclave], "bg_auto_revoked": []}
    assert set(contracts.read) == {first}
    assert core.enclaves.read == []


def test_sweep_walks_activated_requests_in_request_order(tmp_path):
    core = make_core(tmp_path, bg_accounts=ACCOUNTS, bg_window=BG_WINDOW)
    first, second = (
        ok(core, "bg_request", {"account": "alice", "template": BG_TEMPLATE.replace("bg-incident-42", cid)})[
            "request_id"
        ]
        for cid in ("bg-a", "bg-b")
    )
    # The later request is activated first.
    for rid in (second, first):
        ok(core, "bg_approve", {"request_id": rid, "approver": "bob"})
        ok(core, "bg_approve", {"request_id": rid, "approver": "carol"})
    assert list(core.break_glass.activated) == [first, second]
    ok(core, "tick", {"seconds": BG_WINDOW})
    swept = ok(core, "sweep")
    assert swept["bg_auto_revoked"] == [first, second]
    assert swept["expired"] == ["bg-a", "bg-b"]
    assert core.break_glass.activated == {}
