"""The gateway's mini query language.

    SELECT a, b FROM orders WHERE amount > 100 AND region = "emea" LIMIT 10
    SHOW TABLES
    COPY INTO s3://bucket/dump FROM orders

Keywords are case-insensitive; identifiers are case-sensitive. COPY INTO
is parsed only far enough to be recognized and denied; everything after
INTO is kept verbatim for the audit trail.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import lexer
from .contract_dsl import parse_where, print_comparison
from .errors import ParseError
from .lexer import TokenStream, position
from .model import Predicate

SELECT = "Select"
SHOW_TABLES = "ShowTables"
COPY_INTO = "CopyInto"

RESERVED = frozenset(["select", "from", "where", "and", "limit", "show", "tables", "copy", "into"])


@dataclass(frozen=True)
class QueryAst:
    kind: str  # SELECT | SHOW_TABLES | COPY_INTO
    columns: tuple[str, ...] | None = None  # None means * (SELECT only)
    table: str | None = None
    predicate: Predicate | None = None
    limit: int | None = None
    raw: str | None = None  # COPY INTO remainder, verbatim

    def named_columns(self) -> tuple[str, ...]:
        """Every column the statement names, in projection then predicate."""
        cols = list(self.columns or ())
        if self.predicate is not None:
            cols.extend(self.predicate.columns())
        return tuple(cols)


def _at_keyword(ts: TokenStream, word: str) -> bool:
    tok = ts.peek()
    return tok.kind == lexer.IDENT and tok.text.lower() == word


def _expect_keyword(ts: TokenStream, word: str):
    if not _at_keyword(ts, word):
        ts.error(f"expected keyword {word.upper()}, found {ts.describe()}")
    ts.advance()


def _ident(ts: TokenStream, what: str) -> str:
    tok = ts.expect(lexer.IDENT, what)
    if tok.text.lower() in RESERVED:
        ts.error(f"reserved word {tok.text!r} cannot be used as {what}", tok)
    return tok.text


# COPY INTO is matched on the raw text: its remainder is kept verbatim
# and must never pass through the tokenizer.
_COPY_RE = re.compile(r"(?i)^\s*copy\s+into\b[ \t]*")


def parse_query(text: str) -> QueryAst:
    """Parse one statement; raises positioned ParseError on bad input."""
    m = _COPY_RE.match(text)
    if m:
        rest = text[m.end() :]
        newline = rest.find("\n")
        raw, tail = (rest, "") if newline < 0 else (rest[:newline], rest[newline:])
        raw = raw.strip()
        if tail.strip():
            at = position(text, m.end() + newline + 1)
            raise ParseError("unexpected input after the COPY INTO line", *at)
        if not raw:
            raise ParseError("expected a copy target after INTO", *position(text, m.end()))
        return QueryAst(kind=COPY_INTO, raw=raw)
    ts = TokenStream(text, comments=False)
    tok = ts.peek()
    if tok.kind != lexer.IDENT:
        ts.error(f"expected a statement, found {ts.describe()}")
    word = tok.text.lower()
    if word == "select":
        return _parse_select(ts)
    if word == "show":
        ts.advance()
        _expect_keyword(ts, "tables")
        if not ts.at_end():
            ts.error(f"unexpected trailing input: {ts.describe()}")
        return QueryAst(kind=SHOW_TABLES)
    if word == "copy":
        ts.advance()
        _expect_keyword(ts, "into")  # always raises: the regex claims every COPY INTO
    ts.error(f"expected SELECT, SHOW TABLES, or COPY INTO, found {ts.describe()}")


def _parse_select(ts: TokenStream) -> QueryAst:
    ts.advance()  # SELECT
    columns: tuple[str, ...] | None
    if ts.match_punct("*"):
        columns = None
    else:
        names = [_ident(ts, "a column name")]
        while ts.match_punct(","):
            names.append(_ident(ts, "a column name"))
        columns = tuple(names)
    _expect_keyword(ts, "from")
    table = _ident(ts, "a table name")
    predicate = parse_where(ts, _ident, _at_keyword)
    limit = None
    if _at_keyword(ts, "limit"):
        ts.advance()
        tok = ts.expect(lexer.INTEGER, "a limit")
        if tok.value <= 0:
            ts.error("LIMIT must be positive", tok)
        limit = tok.value
    if not ts.at_end():
        ts.error(f"unexpected trailing input: {ts.describe()}")
    return QueryAst(kind=SELECT, columns=columns, table=table, predicate=predicate, limit=limit)


def print_query(ast: QueryAst) -> str:
    """Render a statement back to text; parses back to an equal AST."""
    if ast.kind == SHOW_TABLES:
        return "SHOW TABLES"
    if ast.kind == COPY_INTO:
        return f"COPY INTO {ast.raw}"
    cols = "*" if ast.columns is None else ", ".join(ast.columns)
    out = f"SELECT {cols} FROM {ast.table}"
    if ast.predicate is not None:
        out += " WHERE " + " AND ".join(print_comparison(c) for c in ast.predicate.conjuncts)
    if ast.limit is not None:
        out += f" LIMIT {ast.limit}"
    return out
