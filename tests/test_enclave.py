"""Enclave lifecycle: the man-trap interlock, failure paths, content purity."""

from __future__ import annotations

import gc
import hashlib

import pytest

from enclave_broker.canonical import canonical_bytes
from enclave_broker.contracts import Grant, activate
from enclave_broker.enclave import (
    CAUSE_BREAK_GLASS_AUTO,
    CAUSE_EXPIRY,
    CAUSE_REVOCATION,
    DEFINED,
    PROVISIONING,
    SEALED,
    SERVING,
    EnclaveInstance,
    create_enclave,
    expire_or_revoke,
    open_gate,
    provision,
    seal,
)
from enclave_broker.errors import (
    ContractNotLive,
    ManTrapViolation,
    StateError,
    UnknownSource,
)
from enclave_broker.model import Comparison, Literal, Predicate

from conftest import C1_SEGMENT_ROWS, append_row, no_record
from test_contracts import draft


def live_contract(**kw):
    return activate(draft(**kw), 0)


def serving(store, c=None):
    c = c or live_contract()
    e = create_enclave(c, 0, no_record)
    provision(e, c, store, 0, no_record)
    seal(e, no_record)
    open_gate(e, no_record)
    return e, c, store


def recorder(log):
    """A `record` that keeps each (from, to, cause) it is given, after
    checking that it is called before the enclave moves."""

    def record(e, from_state, to_state, cause):
        assert from_state == (None if to_state == "Defined" else e.state)
        log.append((from_state, to_state, cause))

    return record


def assert_doors(e):
    assert not (e.upstream_open and e.gateway_open)
    # Door/state coupling: each door only opens in its own phase.
    if e.upstream_open:
        assert e.state == "Provisioning"
    if e.gateway_open:
        assert e.state == "Serving"


def test_happy_path_states_and_doors(store):
    c = live_contract()
    log = []
    record = recorder(log)
    e = create_enclave(c, 0, record)
    assert e.state == "Defined"
    assert_doors(e)
    provision(e, c, store, 1, record)
    assert e.state == "Provisioning"
    assert e.upstream_open and not e.gateway_open
    seal(e, record)
    assert e.state == "Sealed"
    assert not e.upstream_open
    open_gate(e, record)
    assert e.state == "Serving"
    assert e.gateway_open and not e.upstream_open
    expire_or_revoke(e, CAUSE_EXPIRY, record)
    assert e.state == "Expired"
    assert not e.gateway_open
    assert e.segments == {}
    assert [to_state for _, to_state, _ in log] == [
        "Defined",
        "Provisioning",
        "Sealed",
        "Serving",
        "Expired",
    ]


def test_create_requires_live_contract():
    with pytest.raises(ContractNotLive):
        create_enclave(draft(), 0, no_record)
    with pytest.raises(ContractNotLive):
        create_enclave(live_contract(ttl=10), 10, no_record)


def test_provision_materializes_fixture_segment(store):
    pred = Predicate((Comparison("created_at", ">=", Literal.date("2025-01-01")),))
    c = live_contract(
        grants=(Grant("warehouse.orders", ("order_id", "amount", "created_at"), pred),)
    )
    e = create_enclave(c, 0, no_record)
    provision(e, c, store, 0, no_record)
    assert e.segments[0].rows == C1_SEGMENT_ROWS


def test_illegal_transitions_raise_state_error(store):
    c = live_contract()
    e = create_enclave(c, 0, no_record)
    with pytest.raises(StateError):
        seal(e, no_record)
    with pytest.raises(StateError):
        open_gate(e, no_record)
    provision(e, c, store, 0, no_record)
    with pytest.raises(StateError):
        provision(e, c, store, 0, no_record)
    with pytest.raises(StateError):
        open_gate(e, no_record)
    seal(e, no_record)
    with pytest.raises(StateError):
        seal(e, no_record)
    open_gate(e, no_record)
    with pytest.raises(StateError):
        open_gate(e, no_record)
    expire_or_revoke(e, CAUSE_EXPIRY, no_record)
    with pytest.raises(StateError):
        expire_or_revoke(e, CAUSE_EXPIRY, no_record)


def test_provision_checks_contract_identity(store):
    c = live_contract()
    other = live_contract(contract_id="someone-else")
    e = create_enclave(c, 0, no_record)
    with pytest.raises(StateError):
        provision(e, other, store, 0, no_record)


def test_provision_failure_revokes_and_clears(store):
    c = live_contract(grants=(Grant("warehouse.orders", None), Grant("ns.ghost", None)))
    e = create_enclave(c, 0, no_record)
    with pytest.raises(UnknownSource):
        provision(e, c, store, 0, no_record)
    assert e.state == "Revoked"
    assert not e.upstream_open
    assert e.segments == {}
    assert_doors(e)
    # Never servable afterwards.
    with pytest.raises(StateError):
        seal(e, no_record)


def test_seal_requires_every_grant(store):
    c = live_contract()
    e = create_enclave(c, 0, no_record)
    provision(e, c, store, 0, no_record)
    del e.segments[0]
    with pytest.raises(StateError):
        seal(e, no_record)


def test_shutdown_causes_map_to_states(store):
    for cause, want in (
        (CAUSE_EXPIRY, "Expired"),
        (CAUSE_REVOCATION, "Revoked"),
        (CAUSE_BREAK_GLASS_AUTO, "Expired"),
    ):
        e, _, _ = serving(store)
        log = []
        expire_or_revoke(e, cause, recorder(log))
        assert e.state == want
        assert log == [("Serving", want, cause)]
        assert_doors(e)


def test_shutdown_rejects_bad_cause(store):
    e, _, _ = serving(store)
    with pytest.raises(StateError):
        expire_or_revoke(e, "Operator", no_record)


def test_early_shutdown_allowed():
    # Revocation can hit an enclave in any pre-terminal state.
    c = live_contract()
    e = create_enclave(c, 0, no_record)
    expire_or_revoke(e, CAUSE_REVOCATION, no_record)
    assert e.state == "Revoked"


def test_forged_door_is_caught(store):
    c = live_contract()
    e = create_enclave(c, 0, no_record)
    provision(e, c, store, 0, no_record)
    e.gateway_open = True  # sabotage
    with pytest.raises(ManTrapViolation):
        e.check_doors()
    e2, _, _ = serving(store)
    e2.upstream_open = True
    with pytest.raises(ManTrapViolation):
        e2.check_doors()


def test_open_gate_defends_against_forged_upstream(store):
    c = live_contract()
    e = create_enclave(c, 0, no_record)
    provision(e, c, store, 0, no_record)
    seal(e, no_record)
    e.upstream_open = True  # sabotage after seal
    with pytest.raises(ManTrapViolation):
        open_gate(e, no_record)


def segments_digest(e: EnclaveInstance) -> str:
    """Content hash of the segments; constant from seal until shutdown."""
    body = {
        str(i): {
            "origin": s.origin,
            "columns": list(s.columns),
            "column_types": list(s.column_types),
            "rows": [list(r) for r in s.rows],
            "extracted_at": s.extracted_at,
        }
        for i, s in e.segments.items()
    }
    return hashlib.sha256(canonical_bytes(body)).hexdigest()


def test_post_seal_digest_constant_until_shutdown(store):
    e, c, _ = serving(store)
    at_seal = segments_digest(e)
    append_row(store, "warehouse.orders", (7, "initech", 10, "2024-10-04"))
    assert segments_digest(e) == at_seal
    expire_or_revoke(e, CAUSE_EXPIRY, no_record)
    assert e.segments == {}


def test_sealed_enclave_holds_no_store_reference(store):
    e, _, _ = serving(store)
    # Structural check: nothing reachable from the enclave is the store
    # or one of its tables; segments hold only immutable row tuples.
    seen = set()
    stack = [e]
    tables = {id(t) for t in store._tables.values()}
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        assert obj is not store
        assert id(obj) not in tables
        if isinstance(obj, EnclaveInstance):
            stack.append(obj.segments)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    gc.collect()
    refs = gc.get_referrers(store)
    assert e not in refs


class Refused(Exception):
    pass


def refuse(e, from_state, to_state, cause):
    raise Refused(f"{from_state} -> {to_state}")


def enclave_at(state, store):
    """A fresh enclave brought to `state` by the legal steps."""
    c = live_contract()
    e = create_enclave(c, 0, no_record)
    steps = (
        lambda: provision(e, c, store, 0, no_record),
        lambda: seal(e, no_record),
        lambda: open_gate(e, no_record),
    )
    for step in steps[: (DEFINED, PROVISIONING, SEALED, SERVING).index(state)]:
        step()
    return e, c, store


@pytest.mark.parametrize(
    "state,step",
    [(DEFINED, "provision"), (PROVISIONING, "seal"), (SEALED, "open_gate")]
    + [
        (state, cause)
        for cause in (CAUSE_EXPIRY, CAUSE_REVOCATION, CAUSE_BREAK_GLASS_AUTO)
        for state in (DEFINED, PROVISIONING, SEALED, SERVING)
    ],
)
def test_a_transition_whose_record_raises_is_not_made(state, step, store):
    e, c, store = enclave_at(state, store)
    make = {
        "provision": lambda: provision(e, c, store, 0, refuse),
        "seal": lambda: seal(e, refuse),
        "open_gate": lambda: open_gate(e, refuse),
    }.get(step, lambda: expire_or_revoke(e, step, refuse))
    before = (e.state, e.upstream_open, e.gateway_open, dict(e.segments))
    with pytest.raises(Refused):
        make()
    assert (e.state, e.upstream_open, e.gateway_open, dict(e.segments)) == before


def test_a_failed_provision_whose_revocation_is_refused_stays_as_recorded(store):
    c = live_contract(grants=(Grant("warehouse.orders", None), Grant("ns.ghost", None)))
    e = create_enclave(c, 0, no_record)
    log = []
    keep = recorder(log)

    def record(e, from_state, to_state, cause):
        if to_state == "Revoked":
            refuse(e, from_state, to_state, cause)
        keep(e, from_state, to_state, cause)

    with pytest.raises(Refused):
        provision(e, c, store, 0, record)
    assert log[-1][1] == e.state == "Provisioning"
    # The next recorded shutdown closes the door and wipes the rows.
    expire_or_revoke(e, CAUSE_EXPIRY, no_record)
    assert (e.upstream_open, e.gateway_open, e.segments) == (False, False, {})
