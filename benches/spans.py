"""Span recorder for the traced pass, and per-layer metrics from its spans.

Spans are recorded from the benchmark's own files: each traced name is
replaced, where the broker looks it up, by a wrapper that records
(name, start, end, parent, request). Nothing in `src/` changes. Spans
stay in memory until the run writes them out at its end.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time

# (module, class or None, attribute, span name). Each attribute is patched
# on the object the broker reads it from at call time.
TARGETS = (
    ("enclave_broker.broker", "BrokerCore", "handle", "broker.handle"),
    ("enclave_broker.broker", "BrokerCore", "sweep", "broker.sweep"),
    ("enclave_broker.broker", None, "parse_contract", "contract_dsl.parse"),
    ("enclave_broker.broker", None, "validate_contract", "contracts.validate"),
    ("enclave_broker.broker", None, "load_table_csv", "store.load_csv"),
    ("enclave_broker.audit", "AuditLedger", "__init__", "audit.load"),
    ("enclave_broker.audit", "AuditLedger", "append", "audit.append"),
    ("enclave_broker.audit", None, "compute_hash", "audit.hash"),
    ("enclave_broker.audit", None, "verify_file", "audit.verify_file"),
    ("enclave_broker.gateway", None, "parse_query", "query.parse"),
    ("enclave_broker.gateway", None, "authorize", "gateway.authorize"),
    ("enclave_broker.gateway", "QueryGateway", "execute", "gateway.execute"),
    ("enclave_broker.gateway", "QueryResult", "to_json", "gateway.to_json"),
    ("enclave_broker.monitor", "AccessMonitor", "record_event", "monitor.record"),
    ("enclave_broker.store", "TableStore", "extract_segment", "store.extract"),
    ("enclave_broker.enclave", None, "provision", "enclave.provision"),
    ("enclave_broker.breakglass", "BreakGlassService", "approve", "breakglass.approve"),
)


class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)


class Tracer:
    """Records one span per call of every traced name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, request]
        self._stack: list[int] = []
        self.request = 0
        self._patches = _Patches()

    def wrap(self, name: str, fn, new_request: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if new_request:
                self.request += 1
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        audit = importlib.import_module("enclave_broker.audit")
        plain_hash = audit.compute_hash
        for module, cls, attr, name in TARGETS:
            owner = _owner(module, cls)
            fn = owner.__dict__[attr]
            if name == "audit.verify_file":
                fn = _with_plain_hash(audit, plain_hash, fn)
            self._patches.set(owner, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start}\t{end}\t{parent}\t{request}\n")


def _with_plain_hash(audit, plain_hash, verify):
    """Verify rehashes every event; its hashes are not appends, so they
    run unwrapped rather than adding one span per ledger line."""

    def call(*args, **kwargs):
        traced_hash = audit.compute_hash
        audit.compute_hash = plain_hash
        try:
            return verify(*args, **kwargs)
        finally:
            audit.compute_hash = traced_hash

    return call


class RowCounter:
    """Counts rows the gateway tests against a predicate, in a pass of its
    own so that the per-row call does not inflate any timed span."""

    def __init__(self):
        self.rows = 0
        self._patches = _Patches()

    def install(self) -> None:
        gateway = importlib.import_module("enclave_broker.gateway")
        plain = gateway.eval_predicate

        def counted(row, schema, predicate):
            self.rows += 1
            return plain(row, schema, predicate)

        self._patches.set(gateway, "eval_predicate", counted)

    def uninstall(self) -> None:
        self._patches.undo()


# ------------------------------------------------------------------ analysis


def self_times(spans) -> tuple[list[int], list[str]]:
    """Self time of each span: its duration minus its children's.

    Also checks that children sit inside their parent and that, for every
    request, the self times under its `broker.handle` span add up to that
    span's duration. Returns (self times, problems).
    """
    child_ns = [0] * len(spans)
    problems = []
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                problems.append(f"{name} escapes its parent {p[0]}")
            child_ns[parent] += end - start
    selfs = [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]
    handle_of = [-1] * len(spans)
    totals: dict[int, int] = {}
    for i, (name, _, _, parent, _) in enumerate(spans):
        handle_of[i] = i if name == "broker.handle" else (handle_of[parent] if parent >= 0 else -1)
        if handle_of[i] >= 0:
            totals[handle_of[i]] = totals.get(handle_of[i], 0) + selfs[i]
    for h, total in totals.items():
        if total != spans[h][2] - spans[h][1]:
            problems.append(f"request {spans[h][4]}: self times sum to {total} ns, handle took {spans[h][2] - spans[h][1]} ns")
    if any(s < 0 for s in selfs):
        problems.append("negative self time")
    return selfs, problems


def pct(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when nothing was sampled."""
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[max(0, math.ceil(q * len(s) - 1e-9) - 1)])


def layer_times(spans, selfs) -> dict[str, list[int]]:
    """Durations per span name, plus self times as `<name>.self`."""
    out: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out.setdefault(name, []).append(end - start)
        out.setdefault(name + ".self", []).append(selfs[i])
    return out


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0
