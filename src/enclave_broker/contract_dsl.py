"""Parser and printer for the contract DSL.

    contract "c1" {
      principal "svc-reporting"
      purpose "quarterly revenue report"
      expires_in 3600s
      grant {
        source warehouse.orders
        columns [order_id, amount, created_at]
        where created_at >= 2025-01-01 and amount > 0
        row_limit 10000
      }
    }

Keywords are case-sensitive and lowercase. Whitespace and # comments are
insignificant. print_contract emits a form that parses back to an equal
contract (TTL is normalized to seconds).
"""

from __future__ import annotations

from . import lexer
from .contracts import DataContract, Grant
from .lexer import TokenStream, escape_string
from .model import OPS, Comparison, Literal, Predicate, days_to_date

KEYWORDS = frozenset(
    ["contract", "principal", "purpose", "expires_in", "grant", "source", "columns", "where", "and", "row_limit"]
)

_TTL_UNITS = {"s": 1, "m": 60, "h": 3600}


def _expect_keyword(ts: TokenStream, word: str):
    tok = ts.peek()
    if tok.kind != lexer.IDENT or tok.text != word:
        ts.error(f"expected keyword {word!r}, found {ts.describe()}")
    ts.advance()


def _at_keyword(ts: TokenStream, word: str) -> bool:
    tok = ts.peek()
    return tok.kind == lexer.IDENT and tok.text == word


def _ident(ts: TokenStream, what: str) -> str:
    tok = ts.expect(lexer.IDENT, what)
    if tok.text in KEYWORDS:
        ts.error(f"reserved word {tok.text!r} cannot be used as {what}", tok)
    return tok.text


def _string(ts: TokenStream, what: str) -> str:
    return ts.expect(lexer.STRING, what).value


def parse_literal(ts: TokenStream) -> Literal:
    tok = ts.peek()
    if tok.kind == lexer.STRING:
        ts.advance()
        return Literal.text(tok.value)
    if tok.kind == lexer.INTEGER:
        ts.advance()
        return Literal.integer(tok.value)
    if tok.kind == lexer.DECIMAL:
        ts.advance()
        return Literal.real(tok.value)
    if tok.kind == lexer.DATE:
        ts.advance()
        try:
            return Literal.date(tok.value)
        except Exception:
            ts.error(f"invalid date {tok.text}", tok)
    ts.error(f"expected a literal, found {ts.describe()}")


def parse_where(ts: TokenStream, ident, at_keyword) -> Predicate | None:
    """An optional `where` conjunction of `column op literal` comparisons,
    shared by both languages: `ident` and `at_keyword` carry the caller's
    keyword rule."""
    if not at_keyword(ts, "where"):
        return None
    conjuncts = []
    while not conjuncts or at_keyword(ts, "and"):
        ts.advance()  # the where or and keyword
        column = ident(ts, "a column name")
        tok = ts.peek()
        if tok.kind != lexer.PUNCT or tok.text not in OPS:
            ts.error(f"expected a comparison operator, found {ts.describe()}")
        ts.advance()
        conjuncts.append(Comparison(column, tok.text, parse_literal(ts)))
    return Predicate(tuple(conjuncts))


def _parse_ttl(ts: TokenStream) -> int:
    tok = ts.expect(lexer.INTEGER, "a duration")
    unit = ts.expect(lexer.IDENT, "a duration unit (s, m, or h)")
    if unit.text not in _TTL_UNITS:
        ts.error(f"expected duration unit s, m, or h, found {ts.describe(unit)}", unit)
    ttl = tok.value * _TTL_UNITS[unit.text]
    if ttl <= 0:
        ts.error("duration must be positive", tok)
    return ttl


def _parse_grant(ts: TokenStream) -> Grant:
    _expect_keyword(ts, "grant")
    ts.expect_punct("{")
    _expect_keyword(ts, "source")
    namespace = _ident(ts, "a namespace")
    ts.expect_punct(".")
    table = _ident(ts, "a table name")
    _expect_keyword(ts, "columns")
    columns: tuple[str, ...] | None
    if ts.match_punct("*"):
        columns = None
    else:
        ts.expect_punct("[")
        names = [_ident(ts, "a column name")]
        while ts.match_punct(","):
            names.append(_ident(ts, "a column name"))
        close = ts.peek()
        ts.expect_punct("]")
        if len(set(names)) != len(names):
            ts.error("duplicate column in grant", close)
        columns = tuple(names)
    predicate = parse_where(ts, _ident, _at_keyword)
    row_limit = None
    if _at_keyword(ts, "row_limit"):
        ts.advance()
        tok = ts.expect(lexer.INTEGER, "a row limit")
        if tok.value <= 0:
            ts.error("row_limit must be positive", tok)
        row_limit = tok.value
    ts.expect_punct("}")
    return Grant(f"{namespace}.{table}", columns, predicate, row_limit)


def parse_contract(text: str) -> DataContract:
    """Parse DSL text into a Draft contract; raises positioned ParseError."""
    ts = TokenStream(text, comments=True)
    _expect_keyword(ts, "contract")
    contract_id = _string(ts, "a contract id string")
    ts.expect_punct("{")
    _expect_keyword(ts, "principal")
    principal = _string(ts, "a principal string")
    _expect_keyword(ts, "purpose")
    purpose = _string(ts, "a purpose string")
    _expect_keyword(ts, "expires_in")
    ttl = _parse_ttl(ts)
    grants = [_parse_grant(ts)]
    while _at_keyword(ts, "grant"):
        grants.append(_parse_grant(ts))
    ts.expect_punct("}")
    if not ts.at_end():
        ts.error(f"unexpected trailing input: {ts.describe()}")
    return DataContract(
        contract_id=contract_id,
        principal=principal,
        purpose=purpose,
        grants=tuple(grants),
        ttl=ttl,
    )


def print_literal(lit: Literal) -> str:
    if lit.kind == "TEXT":
        return escape_string(lit.value)
    if lit.kind == "DATE":
        return days_to_date(lit.value)
    if lit.kind == "REAL":
        text = repr(lit.value)
        if "e" in text or "E" in text or "." not in text:
            text = format(lit.value, "f")
        return text
    return str(lit.value)


def print_comparison(comp: Comparison) -> str:
    return f"{comp.column} {comp.op} {print_literal(comp.literal)}"


def print_contract(c: DataContract) -> str:
    """Render a contract back to DSL text."""
    lines = [
        f"contract {escape_string(c.contract_id)} {{",
        f"  principal {escape_string(c.principal)}",
        f"  purpose {escape_string(c.purpose)}",
        f"  expires_in {c.ttl}s",
    ]
    for g in c.grants:
        lines.append("  grant {")
        lines.append(f"    source {g.source}")
        if g.columns is None:
            lines.append("    columns *")
        else:
            lines.append(f"    columns [{', '.join(g.columns)}]")
        if g.row_predicate is not None:
            conj = " and ".join(print_comparison(x) for x in g.row_predicate.conjuncts)
            lines.append(f"    where {conj}")
        if g.row_limit is not None:
            lines.append(f"    row_limit {g.row_limit}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
