"""The loaders as they were before they streamed, kept as references.

`load_events` is the ledger open that parsed every line into an
`AuditEvent` and kept them all. `load_table_csv` converts and checks
one cell at a time; a DATE cell becomes the ISO text of its day count.
The tests run the streaming code and these on the same inputs and
require the same result or the same error. `check_cell` checks one
Python value as a cell of a column type.
"""

from __future__ import annotations

import csv
import json
import math

from enclave_broker.audit import AuditEvent
from enclave_broker.errors import BadConfig, DuplicateTable, StorageFailure, TypeMismatch
from enclave_broker.model import COLUMN_TYPES, DATE, INT, REAL, TEXT, date_to_days, days_to_date, normalize_date
from enclave_broker.store import Table


def load_events(path) -> list[AuditEvent]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                events.append(
                    AuditEvent(
                        seq=obj["seq"],
                        timestamp=obj["timestamp"],
                        actor=obj["actor"],
                        kind=obj["kind"],
                        payload=obj["payload"],
                        prev_hash=obj["prev_hash"],
                        hash=obj["hash"],
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise StorageFailure(f"corrupt audit log {path}: {exc}") from None
    return events


def check_cell(value, column_type: str, where: str = "cell"):
    """Validate and normalize one stored cell against its column type."""
    if column_type == INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatch(f"{where}: expected INT, got {value!r}")
        return value
    if column_type == REAL:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeMismatch(f"{where}: expected REAL, got {value!r}")
        v = float(value)
        if not math.isfinite(v):
            raise TypeMismatch(f"{where}: REAL must be finite, got {value!r}")
        return v
    if column_type == TEXT:
        if not isinstance(value, str):
            raise TypeMismatch(f"{where}: expected TEXT, got {value!r}")
        return value
    if column_type == DATE:
        if not isinstance(value, str):
            raise TypeMismatch(f"{where}: expected DATE text, got {value!r}")
        try:
            return normalize_date(value)
        except TypeMismatch as exc:
            raise TypeMismatch(f"{where}: {exc}") from None
    raise TypeMismatch(f"{where}: unknown column type {column_type!r}")


class ReferenceStore:
    def __init__(self):
        self._tables: dict[str, Table] = {}


def load_table_csv(store: ReferenceStore, name: str, path) -> Table:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
            types = [t.strip() for t in next(reader)]
        except StopIteration:
            raise BadConfig(f"{path}: missing header rows") from None
        if len(names) != len(types):
            raise BadConfig(f"{path}: header rows disagree on column count")
        schema = tuple(zip([n.strip() for n in names], types))
        rows = []
        for rownum, record in enumerate(reader, start=3):
            if len(record) != len(schema):
                raise TypeMismatch(f"{path} line {rownum}: expected {len(schema)} cells")
            rows.append(
                tuple(
                    _parse_cell(cell, typ, f"{path} line {rownum} column {col}")
                    for cell, (col, typ) in zip(record, schema)
                )
            )
    if name in store._tables:
        raise DuplicateTable(f"table {name} already registered")
    if "." not in name:
        raise BadConfig(f"table name must be qualified namespace.table, got {name!r}")
    for col, typ in schema:
        if typ not in COLUMN_TYPES:
            raise TypeMismatch(f"{name}.{col}: unknown column type {typ!r}")
    names = [col for col, _ in schema]
    if len(set(names)) != len(names):
        raise BadConfig(f"table {name}: duplicate column names")
    table = store._tables[name] = Table(name, schema, rows)
    return table


def _parse_cell(text: str, column_type: str, where: str):
    try:
        if column_type == "INT":
            return int(text)
        if column_type == "REAL":
            return check_cell(float(text), "REAL", where)
        if column_type == DATE:
            try:
                return days_to_date(date_to_days(text.strip()))
            except TypeMismatch as exc:
                raise TypeMismatch(f"{where}: {exc}") from None
        if column_type == "TEXT":
            return text
    except TypeMismatch:
        raise
    except ValueError as exc:
        raise TypeMismatch(f"{where}: {exc}") from None
    raise TypeMismatch(f"{where}: unknown column type {column_type!r}")
