"""Value model shared by contracts, tables, and the query language.

Cell values are plain Python scalars: INT is int, REAL is a finite
float, TEXT is str, and DATE is its normalized `YYYY-MM-DD` str, which
is also its wire form. A DATE literal carries its day count since
1970-01-01 instead. Comparisons are only defined inside a value family
(numbers with numbers, text with text), and a DATE is a number, its day
count: against a DATE literal a DATE cell compares as its text, which
sorts in day order. A cross-family comparison is simply false rather
than an error, so a badly typed query predicate filters everything out
instead of crashing the gateway.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

from .errors import TypeMismatch

INT = "INT"
TEXT = "TEXT"
DATE = "DATE"
REAL = "REAL"
COLUMN_TYPES = (INT, TEXT, DATE, REAL)

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def _parse_date(iso: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(iso)
    except ValueError as exc:
        raise TypeMismatch(f"bad DATE literal {iso!r}: {exc}") from None


def date_to_days(iso: str) -> int:
    """Turn YYYY-MM-DD into days since the epoch; rejects bad dates."""
    return _parse_date(iso).toordinal() - _EPOCH_ORDINAL


def normalize_date(iso: str) -> str:
    """The YYYY-MM-DD form of any date text `date.fromisoformat` reads."""
    return _parse_date(iso).isoformat()


def days_to_date(days: int) -> str:
    return datetime.date.fromordinal(days + _EPOCH_ORDINAL).isoformat()


@dataclass(frozen=True)
class Literal:
    """A typed constant from the contract DSL or the query language."""

    kind: str  # one of COLUMN_TYPES
    value: object  # int | float | str (DATE carries its day count)

    @staticmethod
    def integer(v: int) -> "Literal":
        return Literal(INT, int(v))

    @staticmethod
    def real(v: float) -> "Literal":
        if not math.isfinite(v):
            raise TypeMismatch("REAL literal must be finite")
        return Literal(REAL, float(v))

    @staticmethod
    def text(v: str) -> "Literal":
        return Literal(TEXT, str(v))

    @staticmethod
    def date(iso: str) -> "Literal":
        return Literal(DATE, date_to_days(iso))

    def to_json(self) -> dict:
        value = days_to_date(self.value) if self.kind == DATE else self.value
        return {"kind": self.kind, "value": value}

    @staticmethod
    def from_json(obj: dict) -> "Literal":
        kind = obj["kind"]
        if kind == DATE:
            return Literal.date(obj["value"])
        if kind == REAL:
            return Literal.real(obj["value"])
        if kind == INT:
            return Literal.integer(obj["value"])
        return Literal.text(obj["value"])


def literal_matches(kind: str, column_type: str) -> bool:
    """Does a literal of `kind` type-match a column of `column_type`?

    REAL columns also accept integer literals; everything else is exact.
    """
    if column_type == REAL:
        return kind in (REAL, INT)
    return kind == column_type


OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    column: str
    op: str  # one of OPS
    literal: Literal

    def to_json(self) -> dict:
        return {"column": self.column, "op": self.op, "literal": self.literal.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "Comparison":
        return Comparison(obj["column"], obj["op"], Literal.from_json(obj["literal"]))


@dataclass(frozen=True)
class Predicate:
    """A conjunction of comparisons; a row matches when all of them hold."""

    conjuncts: tuple[Comparison, ...]

    def columns(self) -> tuple[str, ...]:
        return tuple(c.column for c in self.conjuncts)

    def to_json(self) -> dict:
        return {"conjuncts": [c.to_json() for c in self.conjuncts]}

    @staticmethod
    def from_json(obj: dict) -> "Predicate":
        return Predicate(tuple(Comparison.from_json(c) for c in obj["conjuncts"]))


class SchemaCatalog:
    """Read-only view of table schemas, keyed by qualified name."""

    def __init__(self, tables: dict[str, tuple[tuple[str, str], ...]] | None = None):
        self._tables = dict(tables or {})

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def column_names(self, name: str) -> tuple[str, ...]:
        return tuple(col for col, _ in self._tables[name])

    def column_type(self, name: str, column: str) -> str | None:
        for col, typ in self._tables.get(name, ()):
            if col == column:
                return typ
        return None

