"""Contract lifecycle, liveness interval, validation, canonical encoding."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclave_broker.contract_dsl import parse_contract
from enclave_broker.contracts import (
    DataContract,
    Grant,
    activate,
    canonical_encode,
    expire,
    is_live,
    revoke,
    validate_contract,
)
from enclave_broker.errors import StateError
from enclave_broker.model import Comparison, Literal, Predicate

from conftest import C1_TEXT, orders_store


def draft(**kw):
    base = dict(
        contract_id="c",
        principal="p",
        purpose="x",
        grants=(Grant("warehouse.orders", ("order_id",)),),
        ttl=60,
    )
    base.update(kw)
    return DataContract(**base)


def codes(report):
    """The problem codes of a validation report, in order."""
    return [code for code, _ in report.problems]


def test_activate_stamps_time():
    c = activate(draft(), 1000)
    assert c.status == "Active"
    assert c.activated_at == 1000


def test_activate_only_from_draft():
    c = activate(draft(), 0)
    with pytest.raises(StateError):
        activate(c, 1)
    with pytest.raises(StateError):
        activate(revoke(c), 2)


def test_liveness_half_open_interval():
    c = activate(draft(ttl=60), 1000)
    assert not is_live(c, 999)
    assert is_live(c, 1000)
    assert is_live(c, 1059)
    assert not is_live(c, 1060)


def test_liveness_requires_active():
    assert not is_live(draft(), 0)
    c = activate(draft(), 0)
    assert not is_live(revoke(c), 0)
    assert not is_live(expire(c), 0)


def test_revoke_and_expire_only_from_active():
    d = draft()
    with pytest.raises(StateError):
        revoke(d)
    with pytest.raises(StateError):
        expire(d)
    c = activate(d, 0)
    r = revoke(c)
    assert r.status == "Revoked"
    with pytest.raises(StateError):
        revoke(r)
    e = expire(c)
    assert e.status == "Expired"
    with pytest.raises(StateError):
        expire(e)


@given(st.integers(1, 10**6), st.integers(0, 10**7), st.integers(0, 10**7))
def test_live_implies_inside_ttl(ttl, start, now):
    c = activate(draft(ttl=ttl), start)
    if is_live(c, now):
        assert 0 <= now - c.activated_at < ttl


def test_statuses_walk_a_single_path():
    # Draft -> Active -> (Expired | Revoked); no other order is reachable.
    seen = []
    c = draft()
    seen.append(c.status)
    c = activate(c, 0)
    seen.append(c.status)
    seen.append(expire(c).status)
    assert seen == ["Draft", "Active", "Expired"]


def test_json_round_trip():
    c = activate(parse_contract(C1_TEXT), 7)
    assert DataContract.from_json(c.to_json()) == c


def test_canonical_encode_deterministic():
    a = parse_contract(C1_TEXT)
    b = parse_contract(C1_TEXT)
    assert canonical_encode(a) == canonical_encode(b)
    assert canonical_encode(a) != canonical_encode(activate(a, 0))


# ---- validation ----


def test_validate_fixture_contract_ok():
    report = validate_contract(parse_contract(C1_TEXT), orders_store().catalog())
    assert report.ok
    assert report.problems == []


def test_validate_unknown_source():
    c = draft(grants=(Grant("warehouse.nothing", None),))
    report = validate_contract(c, orders_store().catalog())
    assert not report.ok
    assert codes(report) == ["UnknownSource"]


def test_validate_unknown_column():
    c = draft(grants=(Grant("warehouse.orders", ("price",)),))
    assert codes(validate_contract(c, orders_store().catalog())) == ["UnknownColumn"]


def test_validate_predicate_type_mismatch():
    p = Predicate((Comparison("amount", ">=", Literal.text("high")),))
    c = draft(grants=(Grant("warehouse.orders", None, p),))
    assert codes(validate_contract(c, orders_store().catalog())) == ["TypeMismatch"]


def test_validate_predicate_unknown_column():
    p = Predicate((Comparison("price", ">", Literal.integer(1)),))
    c = draft(grants=(Grant("warehouse.orders", None, p),))
    assert codes(validate_contract(c, orders_store().catalog())) == ["UnknownColumn"]


def test_validate_int_literal_fits_real_column():
    store = orders_store()
    store.register_table("ns.reals", (("score", "REAL"),), [(1.5,)])
    p = Predicate((Comparison("score", ">", Literal.integer(1)),))
    c = draft(grants=(Grant("ns.reals", None, p),))
    assert validate_contract(c, store.catalog()).ok


def test_validate_collects_everything():
    p = Predicate((Comparison("nope", "=", Literal.integer(1)),))
    c = draft(
        ttl=0,
        grants=(
            Grant("warehouse.orders", ("order_id", "order_id", "ghost"), p),
            Grant("missing.table", None),
        ),
    )
    found = codes(validate_contract(c, orders_store().catalog()))
    assert "NonPositiveTtl" in found
    assert "DuplicateColumn" in found
    assert "UnknownColumn" in found
    assert "UnknownSource" in found


def test_validate_no_grants_and_empty_columns():
    assert codes(validate_contract(draft(grants=()), orders_store().catalog())) == ["EmptyGrant"]
    c = draft(grants=(Grant("warehouse.orders", ()),))
    assert "EmptyGrant" in codes(validate_contract(c, orders_store().catalog()))


def test_validate_non_positive_row_limit():
    c = draft(grants=(Grant("warehouse.orders", None, None, 0),))
    assert "EmptyGrant" in codes(validate_contract(c, orders_store().catalog()))


def test_validation_ok_means_every_reference_resolves():
    # Walk every column the contract mentions and resolve it by hand.
    c = parse_contract(C1_TEXT)
    catalog = orders_store().catalog()
    assert validate_contract(c, catalog).ok
    for g in c.grants:
        assert catalog.has_table(g.source)
        known = set(catalog.column_names(g.source))
        for col in g.columns or ():
            assert col in known
        for comp in g.row_predicate.conjuncts if g.row_predicate else ():
            assert comp.column in known
