"""Shared fixtures: the orders table, a standard contract, broker factories."""

from __future__ import annotations

import csv
import os
from pathlib import Path

import pytest
from hypothesis import settings

from enclave_broker import audit as audit_mod
from enclave_broker.broker import BrokerConfig, BrokerCore
from enclave_broker.contract_dsl import parse_contract
from enclave_broker.contracts import activate, is_live
from enclave_broker.errors import TypeMismatch
from enclave_broker.model import DATE, INT, TEXT
from enclave_broker.store import TableStore, load_table_csv
from reference_loaders import check_cell

settings.register_profile("suite", deadline=None)
# Under CI, each property draws the same examples on every run, so a
# failure found there repeats.
settings.register_profile("ci", settings.get_profile("suite"), derandomize=True)
settings.load_profile("ci" if os.environ.get("CI") else "suite")

ORDERS_SCHEMA = (
    ("order_id", INT),
    ("customer", TEXT),
    ("amount", INT),
    ("created_at", DATE),
)

ORDERS_ROWS = [
    (1, "acme", 100, "2024-12-31"),
    (2, "globex", 250, "2025-01-15"),
    (3, "acme", 75, "2025-02-01"),
]

C1_TEXT = """
contract "c1" {
  principal "svc-reporting"
  purpose "quarterly revenue report"
  expires_in 3600s
  grant {
    source warehouse.orders
    columns [order_id, amount, created_at]
    where created_at >= 2025-01-01
  }
}
"""

# Hand-applied grant filter: rows 2 and 3 are on or after 2025-01-01,
# row 1 is not; projection drops customer.
C1_SEGMENT_ROWS = (
    (2, 250, "2025-01-15"),
    (3, 75, "2025-02-01"),
)

ORDERS_CSV = (
    "order_id,customer,amount,created_at\n"
    "INT,TEXT,INT,DATE\n"
    "1,acme,100,2024-12-31\n"
    "2,globex,250,2025-01-15\n"
    "3,acme,75,2025-02-01\n"
)


def append_row(store: TableStore, name: str, row: tuple) -> None:
    """Append one row of Python values to a registered table, each cell
    checked by `check_cell`, to show that later writes to the source
    never reach a sealed segment."""
    table = store._get(name)
    if len(row) != len(table.schema):
        raise TypeMismatch(f"{name}: expected {len(table.schema)} cells")
    table.rows.append(
        tuple(check_cell(cell, typ, f"{name}.{col}") for cell, (col, typ) in zip(row, table.schema))
    )


def write_csv(directory, name: str, schema, rows) -> str:
    """Write `rows` under `schema` as the table CSV `<name>.csv` in
    `directory`, with the csv module; returns its path."""
    path = Path(directory) / f"{name}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([col for col, _ in schema])
        writer.writerow([typ for _, typ in schema])
        writer.writerows(rows)
    return str(path)


def csv_table(directory, name: str, schema, rows) -> TableStore:
    """A store holding `name`, loaded by `load_table_csv` from `rows`
    written as a CSV in `directory`."""
    store = TableStore()
    load_table_csv(store, name, write_csv(directory, name, schema, rows))
    return store


def count_extracts(monkeypatch) -> list[str]:
    """The table each `TableStore.extract_segment` call reads, from now
    until the test ends."""
    calls = []
    plain = TableStore.extract_segment

    def counted(self, name, *args, **kwargs):
        calls.append(name)
        return plain(self, name, *args, **kwargs)

    monkeypatch.setattr(TableStore, "extract_segment", counted)
    return calls


def orders_store(directory) -> TableStore:
    return csv_table(directory, "warehouse.orders", ORDERS_SCHEMA, ORDERS_ROWS)


# Every core `make_core` built in the running test; each is closed at its teardown.
_CORES: list[BrokerCore] = []


def make_core(data_dir, **overrides) -> BrokerCore:
    """A core on `data_dir` (made if missing), configured as the daemon
    is: unless `tables` is given, the orders table comes from
    `ORDERS_CSV`, written into the data dir and named in `tables`. The
    core is closed at the test's teardown."""
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    if "tables" not in overrides:
        path = data_dir / "warehouse.orders.csv"
        path.write_text(ORDERS_CSV, encoding="utf-8")
        overrides["tables"] = {"warehouse.orders": str(path)}
    core = BrokerCore(BrokerConfig(data_dir=str(data_dir), **overrides))
    _CORES.append(core)
    return core


@pytest.fixture(autouse=True)
def _close_cores():
    yield
    while _CORES:
        _CORES.pop().close()


def live_grants(core: BrokerCore) -> list:
    """Every (contract id, grant) of every live contract; empty after a full sweep."""
    now = core.clock.now()
    return [(c.contract_id, g) for c in core.contracts.values() if is_live(c, now) for g in c.grants]


def no_record(e, from_state, to_state, cause) -> None:
    """An enclave transition `record` for tests that audit nothing."""


def fold_transitions(core: BrokerCore) -> dict[str, list[dict]]:
    """Each enclave's `EnclaveTransition` payloads, in ledger order.

    Checks the fold against the broker: the ledger names exactly the
    registered enclaves, each `from` is the previous `to` (None first),
    and the last `to` is the enclave's state.
    """
    chains: dict[str, list[dict]] = {}
    for event in core.ledger.events():
        if event.kind == audit_mod.ENCLAVE_TRANSITION:
            chains.setdefault(event.payload["enclave_id"], []).append(event.payload)
    assert set(chains) == set(core.enclaves)
    for enclave_id, chain in chains.items():
        assert [t["from"] for t in chain] == [None] + [t["to"] for t in chain[:-1]], chain
        assert chain[-1]["to"] == core.enclaves[enclave_id].state, chain
    return chains


@pytest.fixture
def store(tmp_path) -> TableStore:
    return orders_store(tmp_path)


@pytest.fixture
def c1_draft():
    return parse_contract(C1_TEXT)


@pytest.fixture
def c1_active(c1_draft):
    return activate(c1_draft, 0)


@pytest.fixture
def core(tmp_path) -> BrokerCore:
    return make_core(tmp_path)


@pytest.fixture
def orders_csv(tmp_path):
    path = tmp_path / "orders.csv"
    path.write_text(ORDERS_CSV, encoding="utf-8")
    return path
