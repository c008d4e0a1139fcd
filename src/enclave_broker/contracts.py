"""Data contracts: temporary, scoped grants that replace standing access.

A contract names a principal, a purpose, a TTL, and one or more grants.
It is worthless until activated, and activation starts the clock: the
contract is live exactly on [activated_at, activated_at + ttl), after
which nothing can bring it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .canonical import canonical_bytes
from .errors import StateError
from .model import Predicate, SchemaCatalog, literal_matches

DRAFT = "Draft"
ACTIVE = "Active"
EXPIRED = "Expired"
REVOKED = "Revoked"

ORIGIN_STANDARD = "Standard"
ORIGIN_BREAK_GLASS = "BreakGlass"


@dataclass(frozen=True)
class Grant:
    """One table-scoped slice of data a contract may serve."""

    source: str  # qualified "namespace.table"
    columns: tuple[str, ...] | None  # None means all columns
    row_predicate: Predicate | None = None
    row_limit: int | None = None

    def table_name(self) -> str:
        """The unqualified name this grant exposes inside an enclave."""
        return self.source.split(".", 1)[1] if "." in self.source else self.source

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "columns": "*" if self.columns is None else list(self.columns),
            "row_predicate": None if self.row_predicate is None else self.row_predicate.to_json(),
            "row_limit": self.row_limit,
        }

    @staticmethod
    def from_json(obj: dict) -> "Grant":
        columns = obj["columns"]
        return Grant(
            source=obj["source"],
            columns=None if columns == "*" else tuple(columns),
            row_predicate=None
            if obj.get("row_predicate") is None
            else Predicate.from_json(obj["row_predicate"]),
            row_limit=obj.get("row_limit"),
        )


@dataclass(frozen=True)
class DataContract:
    contract_id: str
    principal: str
    purpose: str
    grants: tuple[Grant, ...]
    ttl: int  # whole seconds, > 0
    status: str = DRAFT
    activated_at: int | None = None
    origin: str = ORIGIN_STANDARD

    def to_json(self) -> dict:
        return {
            "contract_id": self.contract_id,
            "principal": self.principal,
            "purpose": self.purpose,
            "grants": [g.to_json() for g in self.grants],
            "ttl": self.ttl,
            "status": self.status,
            "activated_at": self.activated_at,
            "origin": self.origin,
        }

    @staticmethod
    def from_json(obj: dict) -> "DataContract":
        return DataContract(
            contract_id=obj["contract_id"],
            principal=obj["principal"],
            purpose=obj["purpose"],
            grants=tuple(Grant.from_json(g) for g in obj["grants"]),
            ttl=obj["ttl"],
            status=obj["status"],
            activated_at=obj["activated_at"],
            origin=obj["origin"],
        )


def canonical_encode(c: DataContract) -> bytes:
    """Byte-stable encoding; equal contracts encode identically."""
    return canonical_bytes(c.to_json())


def activate(c: DataContract, now: int) -> DataContract:
    """Draft to Active; anything else is a StateError."""
    if c.status != DRAFT:
        raise StateError(f"cannot activate contract in status {c.status}")
    return replace(c, status=ACTIVE, activated_at=now)


def is_live(c: DataContract, now: int) -> bool:
    """Live exactly on the half-open interval [activated_at, activated_at + ttl)."""
    if c.status != ACTIVE or c.activated_at is None:
        return False
    return c.activated_at <= now < c.activated_at + c.ttl


def revoke(c: DataContract) -> DataContract:
    """Active to Revoked, immediately and irreversibly."""
    if c.status != ACTIVE:
        raise StateError(f"cannot revoke contract in status {c.status}")
    return replace(c, status=REVOKED)


def expire(c: DataContract) -> DataContract:
    """Active to Expired; the sweep calls this once the TTL has elapsed."""
    if c.status != ACTIVE:
        raise StateError(f"cannot expire contract in status {c.status}")
    return replace(c, status=EXPIRED)


# Validation problem codes.
UNKNOWN_SOURCE = "UnknownSource"
UNKNOWN_COLUMN = "UnknownColumn"
TYPE_MISMATCH = "TypeMismatch"
EMPTY_GRANT = "EmptyGrant"
DUPLICATE_COLUMN = "DuplicateColumn"
NON_POSITIVE_TTL = "NonPositiveTtl"


@dataclass
class ValidationReport:
    """Problems found while checking a contract against a catalog.

    ok is true exactly when the problem list is empty.
    """

    problems: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add(self, code: str, message: str):
        self.problems.append((code, message))


def validate_contract(c: DataContract, catalog: SchemaCatalog) -> ValidationReport:
    """Check every grant against the catalog; problems are reported, not raised."""
    report = ValidationReport()
    if c.ttl <= 0:
        report.add(NON_POSITIVE_TTL, f"ttl must be positive, got {c.ttl}")
    if not c.grants:
        report.add(EMPTY_GRANT, "contract has no grants")
    for i, g in enumerate(c.grants):
        where = f"grant {i} ({g.source})"
        if not catalog.has_table(g.source):
            report.add(UNKNOWN_SOURCE, f"{where}: unknown source")
            continue
        known = set(catalog.column_names(g.source))
        if g.columns is not None:
            if not g.columns:
                report.add(EMPTY_GRANT, f"{where}: empty column list")
            seen: set[str] = set()
            for col in g.columns:
                if col in seen:
                    report.add(DUPLICATE_COLUMN, f"{where}: duplicate column {col}")
                seen.add(col)
                if col not in known:
                    report.add(UNKNOWN_COLUMN, f"{where}: unknown column {col}")
        if g.row_predicate is not None:
            for comp in g.row_predicate.conjuncts:
                if comp.column not in known:
                    report.add(UNKNOWN_COLUMN, f"{where}: unknown predicate column {comp.column}")
                    continue
                col_type = catalog.column_type(g.source, comp.column)
                if not literal_matches(comp.literal.kind, col_type):
                    report.add(
                        TYPE_MISMATCH,
                        f"{where}: {comp.column} is {col_type}, literal is {comp.literal.kind}",
                    )
        if g.row_limit is not None and g.row_limit <= 0:
            report.add(EMPTY_GRANT, f"{where}: row_limit must be positive")
    return report
