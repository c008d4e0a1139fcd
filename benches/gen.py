"""Seeded inputs for the benchmark, and the oracle that checks answers.

Everything here is a pure function of the seed: the generated tables,
the pre-built ledger history, the statement pools and the contract
churn plan. The oracle filters, projects and limits the generated rows
with plain Python operators; it never calls the broker's predicate code
(`store.eval_predicate`, `model.compare`).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import operator
import random
import string
from dataclasses import dataclass

COLUMNS = (
    ("id", "INT"),
    ("region", "TEXT"),
    ("bucket", "INT"),
    ("amount", "REAL"),
    ("day", "DATE"),
    ("note", "TEXT"),
)
NAMES = tuple(c for c, _ in COLUMNS)
TYPES = dict(COLUMNS)
SOURCE_INDEX = {c: i for i, c in enumerate(NAMES)}
REGIONS = ("apac", "emea", "amer", "latam", "anz", "nordics", "dach", "benelux")
ORDERED = ("id", "bucket", "amount", "day")  # columns a range predicate can cut
_DAY0 = datetime.date(2015, 1, 1)
_DAYS = tuple((_DAY0 + datetime.timedelta(days=d)).isoformat() for d in range(3650))
OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# Monitor defaults of the daemon; the model below counts the alerts they raise.
VOLUME_THRESHOLD = 10000
PROBING_THRESHOLD = 5
PROBING_WINDOW = 300


def canonical(obj) -> bytes:
    """The wire encoding the protocol promises: sorted keys, no spaces, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


# ------------------------------------------------------------------ tables


def make_rows(seed: int, n: int) -> list[tuple]:
    """`n` rows; `id` is the row number and `bucket` a permutation of 0..n-1.

    DATE cells are ISO strings, which order like the dates they name.
    """
    rng = random.Random(f"rows:{seed}:{n}")
    buckets = list(range(n))
    rng.shuffle(buckets)
    letters = string.ascii_lowercase
    return [
        (
            i,
            rng.choice(REGIONS),
            buckets[i],
            round(rng.uniform(0.0, 1000.0), 2),
            rng.choice(_DAYS),
            "".join(rng.choices(letters, k=rng.randint(6, 12))),
        )
        for i in range(n)
    ]


def write_csv(path, rows) -> None:
    """The daemon's table format: names row, types row, then data."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(NAMES)
        w.writerow([t for _, t in COLUMNS])
        w.writerows(rows)


# ------------------------------------------------------------- text forms


def literal(column: str, value) -> str:
    typ = TYPES.get(column, "TEXT")
    if typ == "TEXT":
        return json.dumps(value)
    if typ == "REAL":
        return repr(float(value))
    return str(value)  # INT, and DATE as a bare ISO date


def where_text(pred, joiner: str) -> str:
    return joiner.join(f"{c} {op} {literal(c, v)}" for c, op, v in pred)


def contract_text(cid, principal, columns, pred, row_limit, source, ttl="1h") -> str:
    cols = "*" if columns is None else "[" + ", ".join(columns) + "]"
    lines = [
        f'contract "{cid}" {{',
        f'  principal "{principal}"',
        '  purpose "benchmark"',
        f"  expires_in {ttl}",
        "  grant {",
        f"    source {source}",
        f"    columns {cols}",
    ]
    if pred:
        lines.append("    where " + where_text(pred, " and "))
    if row_limit is not None:
        lines.append(f"    row_limit {row_limit}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ oracle


@dataclass
class Segment:
    """What one grant's enclave holds: projected rows in source order."""

    table: str  # the unqualified name queries use
    columns: tuple[str, ...]
    rows: list[tuple]
    row_limit: int | None

    def sorted_values(self, column: str) -> list:
        cache = self.__dict__.setdefault("_sorted", {})
        if column not in cache:
            i = self.columns.index(column)
            cache[column] = sorted(r[i] for r in self.rows)
        return cache[column]


def _filter(rows, pos, pred) -> list:
    """Rows meeting every comparison of `pred`, in order."""
    tests = [(pos[c], OPS[op], v) for c, op, v in pred]
    if not tests:
        return list(rows)
    if len(tests) == 1:
        ((i, f, v),) = tests
        return [r for r in rows if f(r[i], v)]
    if len(tests) == 2:
        (i, f, v), (j, g, w) = tests
        return [r for r in rows if f(r[i], v) and g(r[j], w)]
    return [r for r in rows if all(f(r[i], v) for i, f, v in tests)]


def extract(rows, columns, pred, row_limit, table) -> Segment:
    cols = NAMES if columns is None else tuple(columns)
    picks = [SOURCE_INDEX[c] for c in cols]
    kept = _filter(rows, SOURCE_INDEX, pred)
    return Segment(table, cols, [tuple(r[i] for i in picks) for r in kept], row_limit)


def answer(seg: Segment, columns, pred, limit) -> dict:
    """SELECT `columns` (None is *) WHERE `pred` LIMIT `limit`, as the wire shows it."""
    pos = {c: i for i, c in enumerate(seg.columns)}
    out = seg.columns if columns is None else tuple(columns)
    matched = _filter(seg.rows, pos, pred)
    n = len(matched)
    if limit is not None:
        n = min(n, limit)
    if seg.row_limit is not None:
        n = min(n, seg.row_limit)
    picks = [pos[c] for c in out]
    return {
        "columns": list(out),
        "rows": [[r[i] for i in picks] for r in matched[:n]],
        "truncated": n < len(matched),
    }


@dataclass(frozen=True)
class Stmt:
    """One statement with its expected outcome.

    kind is the monitor's statement kind; `code` is the expected denial
    code, or None when the statement must succeed with `result`.
    """

    text: str
    kind: str  # "Select" | "ShowTables" | "CopyInto"
    star: bool
    code: str | None
    result: dict | None
    digest: str | None
    rows: int


def _allowed(text, kind, star, result) -> Stmt:
    return Stmt(text, kind, star, None, result, digest(result), len(result["rows"]))


def _denied(text, kind, code) -> Stmt:
    return Stmt(text, kind, False, code, None, None, 0)


def show_tables(seg: Segment) -> Stmt:
    result = {"columns": ["table"], "rows": [[seg.table]], "truncated": False}
    return _allowed("SHOW TABLES", "ShowTables", False, result)


def copy_into(seg: Segment, rng) -> Stmt:
    return _denied(f"COPY INTO s3://drop/{rng.randrange(10**6)} FROM {seg.table}", "CopyInto", "StatementForbidden")


def out_of_scope(seg: Segment, rng) -> Stmt:
    missing = [c for c in NAMES if c not in seg.columns] or ["nope"]
    col = rng.choice(missing)
    if rng.random() < 0.5:
        text = f"SELECT {seg.columns[0]}, {col} FROM {seg.table}"
    else:
        text = f'SELECT {seg.columns[0]} FROM {seg.table} WHERE {col} = "x"'
    return _denied(text, "Select", "ColumnOutOfScope")


def select(seg: Segment, rng, selectivity: float, limit, columns, col, window: bool = True) -> Stmt:
    """SELECT `columns` (None is *) whose predicate on `col` keeps about
    `selectivity` of the segment.

    With `window` the predicate is a range at a random position; without
    it, one comparison that every row meets alike. A 100% selection
    compares `col` with its minimum, or has no WHERE when `col` is None.
    """
    pred = []
    if col is not None and seg.rows:
        values = seg.sorted_values(col)
        k = max(1, round(selectivity * len(values)))
        if k >= len(values):
            pred.append((col, ">=", values[0]))
        elif not window:
            pred.append((col, "<", values[k]))
        else:
            lo = rng.randrange(len(values) - k + 1)
            pred.append((col, ">=", values[lo]))
            if lo + k < len(values):
                pred.append((col, "<", values[lo + k]))
    text = f"SELECT {'*' if columns is None else ', '.join(columns)} FROM {seg.table}"
    if pred:
        text += " WHERE " + where_text(pred, " AND ")
    if limit is not None:
        text += f" LIMIT {limit}"
    return _allowed(text, "Select", columns is None, answer(seg, columns, pred, limit))


def _cuttable(seg: Segment) -> list[str]:
    return [c for c in ORDERED if c in seg.columns]


def _narrow(seg: Segment, v: int) -> tuple[str, ...]:
    """The v-th narrow projection: one or two columns, rotating through the segment."""
    n = len(seg.columns)
    return tuple(seg.columns[(v + k) % n] for k in range(1 + v % 2))


def scan_pool(seed, name, seg: Segment, size: int) -> list[Stmt]:
    """A fixed mix: ~5% SHOW TABLES, ~5% denied, the rest SELECTs spread
    evenly over selectivity 0.1%/10%/100%, with and without LIMIT,
    narrow projections and `*`.

    Projections, LIMITs and predicate columns rotate with the statement's
    place in the pool; the seed picks only predicate bounds and the
    stream order, so every seed costs about the same.
    """
    rng = random.Random(f"pool:{name}:{seed}")
    n_show = max(1, round(size * 0.05))
    n_denied = max(2, round(size * 0.05))
    pool = [show_tables(seg) for _ in range(n_show)]
    for i in range(n_denied):
        pool.append(copy_into(seg, rng) if i % 3 == 2 else out_of_scope(seg, rng))
    classes = [
        (sel, has_limit, narrow)
        for sel in (0.001, 0.1, 1.0)
        for has_limit in (False, True)
        for narrow in (True, False)
    ]
    cuttable = _cuttable(seg)
    for i in range(size - len(pool)):
        (sel, has_limit, narrow), v = classes[i % len(classes)], i // len(classes)
        limit = (10, 100, 1000)[v % 3] if has_limit else None
        col = cuttable[v % len(cuttable)]
        if sel == 1.0 and v % 2 == 0:
            col = None
        pool.append(select(seg, rng, sel, limit, _narrow(seg, v) if narrow else None, col))
    return pool


def restart_statements(seed, seg: Segment) -> list[Stmt]:
    """The statements of one restart: fixed classes, one comparison each,
    so every restart and every seed scans alike and returns ~3.4k rows."""
    rng = random.Random(f"restart:{seed}")
    classes = [
        (0.001, None, True),
        (0.001, None, False),
        (0.01, None, True),
        (0.01, 100, False),
        (0.1, 100, True),
        (0.1, 1000, False),
        (1.0, 1000, True),
        (1.0, 10, False),
    ]
    cuttable = _cuttable(seg)
    return [
        select(seg, rng, sel, limit, _narrow(seg, i) if narrow else None, cuttable[i % len(cuttable)], window=False)
        for i, (sel, limit, narrow) in enumerate(classes)
    ]


def shuffled_epochs(pool, rng):
    """Endless stream: each pass over the pool in a fresh order."""
    while True:
        order = list(range(len(pool)))
        rng.shuffle(order)
        yield from order


class MonitorModel:
    """The documented alert rules, per session, to count AlertRaised events.

    COPY INTO always alerts; a SELECT * after SHOW TABLES alerts once per
    session; rows past the volume threshold alert once per session; and
    every `PROBING_THRESHOLD` denials inside the window alert.
    """

    def __init__(self):
        self.first_show = False
        self.enumeration = False
        self.volume = False
        self.rows = 0
        self.denials: list[int] = []

    def score(self, stmt: Stmt, now: int) -> int:
        alerts = 0
        if stmt.kind == "CopyInto":
            alerts += 1
        if stmt.kind == "ShowTables":
            self.first_show = True
        if stmt.kind == "Select" and stmt.star and self.first_show and not self.enumeration:
            self.enumeration = True
            alerts += 1
        if stmt.code is None:
            self.rows += stmt.rows
            if not self.volume and self.rows > VOLUME_THRESHOLD:
                self.volume = True
                alerts += 1
        else:
            self.denials = [t for t in self.denials if t > now - PROBING_WINDOW] + [now]
            if len(self.denials) >= PROBING_THRESHOLD:
                alerts += 1
                self.denials = []
        return alerts


# ------------------------------------------------------------ churn plan


@dataclass
class Cycle:
    contract_id: str
    text: str
    statements: list[Stmt]
    revoke: bool


def churn_cycle(seed, conn, k, rows, by_bucket, window=40) -> Cycle:
    """One consumer lifecycle: a contract over `window` buckets, five statements."""
    rng = random.Random(f"churn:{seed}:{conn}:{k}")
    cid = f"cc-{conn}-{k}"
    columns = None
    if rng.random() >= 0.2:
        picked = set(rng.sample(NAMES, rng.randint(3, 5)))
        columns = tuple(c for c in NAMES if c in picked)
    a = rng.randrange(len(rows) - window)
    pred = [("bucket", ">=", a), ("bucket", "<", a + window)]
    if rng.random() < 0.3:
        pred.append(("amount", ">=", 0.0))
    row_limit = 25 if rng.random() < 0.3 else None
    candidates = [rows[i] for i in sorted(by_bucket[a : a + window])]
    seg = extract(candidates, columns, pred, row_limit, "events")
    stmts = [out_of_scope(seg, rng), copy_into(seg, rng)]
    for _ in range(3):
        if rng.random() < 0.2:
            stmts.append(show_tables(seg))
        else:
            sel = rng.choice((0.1, 0.5, 1.0))
            limit = rng.choice((None, 5, 20))
            proj = tuple(rng.sample(seg.columns, rng.randint(1, 2))) if rng.random() < 0.5 else None
            col = None if sel == 1.0 and rng.random() < 0.5 else rng.choice(_cuttable(seg))
            stmts.append(select(seg, rng, sel, limit, proj, col))
    rng.shuffle(stmts)
    text = contract_text(cid, f"svc-{conn}", columns, pred, row_limit, "wh.events")
    return Cycle(cid, text, stmts, rng.random() < 0.5)


# ---------------------------------------------------------- ledger history


def build_history(ledger, seed: int, n_events: int) -> int:
    """Append `n_events` plausible past events; returns the last timestamp.

    `ledger` is an `AuditLedger`, so the history chains and verifies like
    one the daemon wrote itself.
    """
    rng = random.Random(f"history:{seed}")
    now = 0
    hexid = lambda p: f"{p}-{rng.getrandbits(48):012x}"  # noqa: E731
    while len(ledger) < n_events:
        now += rng.randint(1, 60)
        cid = f"hist-{len(ledger)}"
        principal = f"svc-h{rng.randrange(40)}"
        enc, ses = hexid("enc"), hexid("ses")
        contract = {
            "contract_id": cid,
            "principal": principal,
            "purpose": "history",
            "grants": [{"source": "wh.orders", "columns": "*", "row_predicate": None, "row_limit": None}],
            "ttl": 3600,
            "status": "Draft",
            "activated_at": None,
            "origin": "Standard",
        }
        events = [
            ("operator", "ContractSubmitted", {"contract_id": cid, "principal": principal, "contract": contract}),
            ("operator", "ContractActivated", {"contract_id": cid, "activated_at": now, "ttl": 3600}),
        ]
        states = [None, "Defined", "Provisioning", "Sealed", "Serving"]
        for a, b in zip(states, states[1:]):
            events.append(
                ("broker", "EnclaveTransition", {"enclave_id": enc, "contract_id": cid, "from": a, "to": b, "cause": "Operator"})
            )
        base = {"session_id": ses, "enclave_id": enc, "contract_id": cid}
        events.append((principal, "SessionOpened", dict(base)))
        for _ in range(rng.randint(5, 40)):
            lo = rng.randrange(100000)
            text = f"SELECT id, amount FROM orders WHERE bucket >= {lo} AND bucket < {lo + 100} LIMIT 10"
            if rng.random() < 0.05:
                events.append((principal, "QueryDenied", {**base, "statement_kind": "CopyInto", "statement": "COPY INTO s3://x FROM orders", "rows_returned": 0, "deny_code": "StatementForbidden"}))
            else:
                events.append((principal, "QueryExecuted", {**base, "statement_kind": "Select", "statement": text, "rows_returned": 10}))
        events.append((principal, "SessionClosed", dict(base)))
        events.append(("broker", "ContractExpired", {"contract_id": cid, "expired_at": now + 3600}))
        events.append(
            ("broker", "EnclaveTransition", {"enclave_id": enc, "contract_id": cid, "from": "Serving", "to": "Expired", "cause": "Expiry"})
        )
        for actor, kind, payload in events:
            if len(ledger) >= n_events:
                break
            ledger.append(now, actor, kind, payload)
    return now
