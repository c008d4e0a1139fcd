"""Contract DSL: parsing, printing, and the round-trip property."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enclave_broker.contract_dsl import KEYWORDS, parse_contract, print_contract
from enclave_broker.contracts import DataContract, Grant
from enclave_broker.errors import ParseError
from enclave_broker.model import Comparison, Literal, Predicate

FULL = """
# reporting access, reviewed 2025-02
contract "c1" {
  principal "svc-reporting"
  purpose "quarterly revenue report"
  expires_in 1h
  grant {
    source warehouse.orders
    columns [order_id, amount, created_at]
    where created_at >= 2025-01-01 and amount > 0
    row_limit 10000
  }
}
"""


def test_parse_full_contract():
    c = parse_contract(FULL)
    assert c.contract_id == "c1"
    assert c.principal == "svc-reporting"
    assert c.purpose == "quarterly revenue report"
    assert c.ttl == 3600
    assert c.status == "Draft"
    assert c.activated_at is None
    assert c.origin == "Standard"
    (g,) = c.grants
    assert g.source == "warehouse.orders"
    assert g.columns == ("order_id", "amount", "created_at")
    assert g.row_limit == 10000
    a, b = g.row_predicate.conjuncts
    assert (a.column, a.op) == ("created_at", ">=")
    assert a.literal == Literal.date("2025-01-01")
    assert (b.column, b.op, b.literal) == ("amount", ">", Literal.integer(0))


def test_parse_star_columns_no_predicate():
    c = parse_contract(
        'contract "c2" { principal "p" purpose "x" expires_in 60s'
        " grant { source a.t columns * } }"
    )
    (g,) = c.grants
    assert g.columns is None
    assert g.row_predicate is None
    assert g.row_limit is None


def test_parse_multiple_grants():
    c = parse_contract(
        'contract "c3" { principal "p" purpose "x" expires_in 5m'
        " grant { source a.t columns * }"
        " grant { source a.u columns [x] } }"
    )
    assert c.ttl == 300
    assert len(c.grants) == 2
    assert c.grants[1].columns == ("x",)


def test_ttl_units():
    for unit, want in (("s", 45), ("m", 45 * 60), ("h", 45 * 3600)):
        c = parse_contract(
            f'contract "c" {{ principal "p" purpose "x" expires_in 45{unit}'
            " grant { source a.t columns * } }"
        )
        assert c.ttl == want


@pytest.mark.parametrize(
    "text,needle",
    [
        ('contract "c" { principal "p" }', "purpose"),
        ("contract c { }", "contract id"),
        ('contract "c" { principal "p" purpose "x" expires_in 0s grant { source a.t columns * } }', "positive"),
        ('contract "c" { principal "p" purpose "x" expires_in 9d grant { source a.t columns * } }', "unit"),
        ('contract "c" { principal "p" purpose "x" expires_in 60s grant { source a columns * } }', "expected '.'"),
        (
            'contract "c" { principal "p" purpose "x" expires_in 60s'
            " grant { source a.t columns [x, x] } }",
            "duplicate",
        ),
        (
            'contract "c" { principal "p" purpose "x" expires_in 60s'
            " grant { source a.t columns [where] } }",
            "reserved",
        ),
        (
            'contract "c" { principal "p" purpose "x" expires_in 60s'
            " grant { source a.t columns * row_limit 0 } }",
            "positive",
        ),
        (
            'contract "c" { principal "p" purpose "x" expires_in 60s'
            " grant { source a.t columns * } } trailing",
            "trailing",
        ),
    ],
)
def test_parse_errors_carry_positions(text, needle):
    with pytest.raises(ParseError) as exc:
        parse_contract(text)
    assert needle in str(exc.value)
    assert exc.value.line >= 1
    assert exc.value.column >= 1


def test_invalid_calendar_date_rejected():
    with pytest.raises(ParseError) as exc:
        parse_contract(
            'contract "c" { principal "p" purpose "x" expires_in 60s'
            " grant { source a.t columns * where d = 2025-13-40 } }"
        )
    assert "invalid date" in str(exc.value)


@pytest.mark.parametrize(
    "literal, needle",
    [("1" * 5000, "too long"), ("²", "unexpected character"), ("1" * 400 + ".5", "out of range")],
    ids=["integer-too-long", "superscript-digit", "decimal-overflow"],
)
def test_unreadable_literals_in_where_are_parse_errors(literal, needle):
    head = (
        'contract "c" { principal "p" purpose "x" expires_in 60s'
        " grant { source a.t columns * where amount > "
    )
    with pytest.raises(ParseError) as exc:
        parse_contract(head + literal + " } }")
    assert needle in exc.value.detail
    assert (exc.value.line, exc.value.column) == (1, len(head) + 1)


def test_print_normalizes_ttl_to_seconds():
    c = parse_contract(FULL)
    text = print_contract(c)
    assert "expires_in 3600s" in text
    assert parse_contract(text) == c


def test_print_escapes_strings():
    c = DataContract(
        contract_id='we "quote"\nthings',
        principal="p\\q",
        purpose="tab\there",
        grants=(Grant("a.t", None),),
        ttl=60,
    )
    assert parse_contract(print_contract(c)) == c


# ---- generated round trips ----

_idents = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS
)
_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_literals = st.one_of(
    st.integers(-(10**9), 10**9).map(Literal.integer),
    st.integers(-(10**6), 10**6).map(lambda n: Literal.real(n / 16)),
    _texts.map(Literal.text),
    st.dates(min_value=datetime.date(1970, 1, 1)).map(
        lambda d: Literal.date(d.isoformat())
    ),
)
_comparisons = st.builds(
    Comparison,
    column=_idents,
    op=st.sampled_from(("=", "!=", "<", "<=", ">", ">=")),
    literal=_literals,
)
_predicates = st.lists(_comparisons, min_size=1, max_size=3).map(
    lambda cs: Predicate(tuple(cs))
)
_grants = st.builds(
    Grant,
    source=st.tuples(_idents, _idents).map(lambda p: f"{p[0]}.{p[1]}"),
    columns=st.one_of(
        st.none(),
        st.lists(_idents, min_size=1, max_size=4, unique=True).map(tuple),
    ),
    row_predicate=st.none() | _predicates,
    row_limit=st.none() | st.integers(1, 10**6),
)
_contracts = st.builds(
    DataContract,
    contract_id=_texts,
    principal=_texts,
    purpose=_texts,
    grants=st.lists(_grants, min_size=1, max_size=3).map(tuple),
    ttl=st.integers(1, 10**6),
)


@given(_contracts)
def test_round_trip_generated(c):
    assert parse_contract(print_contract(c)) == c
