"""The three workloads: inputs, client scripts, and the flow of one run.

Every workload is a closed loop (a consumer or operator waits for each
reply) over at most two connections from this one process, on the
logical clock, against a broker that always has a data dir. A flow runs
unchanged on either backend in `drive`, so the socket run and the
in-process traced run replay the same stream.

Each flow tracks, independently of the broker, how many ledger events
and alerts a correct broker must have produced, and ends by retiring
everything (a clock jump and a sweep) and checking `audit_verify` and
`alerts` against those counts.
"""

from __future__ import annotations

import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from drive import Call, Stats, do, run_scripts
from gen import MonitorModel

# Why each workload exists; printed with every result.
WHY = {
    "select_scan": (
        "Two consumers each scan a ~20k-row Serving enclave of one 25k-row table: "
        "the segment scan and result encoding dominate, the ledger append is noise, "
        "and two clients on the one lock show in p99."
    ),
    "contract_churn": (
        "Two clients cycle contracts on a 2k-row table (submit, activate, broker ~40 rows, "
        "session, 5 statements, close, revoke or expire, tick, sweep, break-glass): "
        "fixed per-request cost (framing, dispatch, DSL parse, contract writes, ~16 flushed "
        "ledger appends per cycle, monitor) dominates, and retained state keeps growing."
    ),
    "ledger_restart": (
        "Restarts over a 100k-event ledger and a 100k-row table: spawn to first reply, "
        "audit_verify, and brokering the full table are the cold paths the other two "
        "workloads barely touch."
    ),
}

SCAN_ROWS, SCAN_POOL = 25_000, 40
CHURN_ROWS = 2_000
RESTART_ROWS = 100_000
HISTORY = {"select_scan": 10_000, "contract_churn": 10_000, "ledger_restart": 100_000}
SETUP_REPS = 7  # daemon starts per run before the measured phase
SETUP_VERIFIES = 3  # audit_verify calls after each of those starts
CHURN_TICK_EVERY, CHURN_BG_EVERY = 10, 50
CHURN_RSS_MARK = 400  # cycles done (both clients) when peak RSS is read
CHURN_PLANNED = 3_000  # cycles per client planned before timing; more are planned on demand
RESTART_VERIFIES, RESTART_PROVISIONS, RESTART_PASSES = 3, 2, 1  # per restart


@dataclass
class Tally:
    """What a correct broker must have written, counted by the benchmark."""

    events: int = 0  # ledger events so far
    alerts: int = 0  # alerts held by the running instance
    live: int = 0  # unrevoked contracts with an enclave in this instance: 2 events at expiry
    orphaned: int = 0  # unrevoked contracts whose enclave a restart dropped: 1 event at expiry
    bg: int = 0  # break-glass activations: 3 events when the window closes
    source: str = ""  # the table break-glass templates read

    def statement(self, st, model: MonitorModel, now: int) -> None:
        alerts = model.score(st, now)
        self.events += 1 + alerts
        self.alerts += alerts

    def restart(self) -> None:
        self.orphaned += self.live
        self.live = 0
        self.alerts = 0

    def absorb(self, other: "Tally") -> None:
        self.events += other.events
        self.alerts += other.alerts
        self.live += other.live
        self.bg += other.bg

    def retire_all(self) -> None:
        self.events += 2 * self.live + self.orphaned + 3 * self.bg
        self.live = self.orphaned = self.bg = 0


@dataclass
class Plan:
    """How much a run does: until a deadline, or a fixed number of units."""

    seconds: float | None  # measured-phase length; None for a fixed stream
    units: int | None = None  # statements / cycles / restarts per run in a fixed stream
    reps: int = SETUP_REPS
    threaded: bool = True
    probe: object = None  # a speed.Probe to sample between requests, or None

    def stop_fn(self, t0: float):
        if self.seconds is None:
            return lambda: False
        deadline = t0 + self.seconds
        return lambda: time.perf_counter() >= deadline


@dataclass
class Outcome:
    probe: object = None
    setup_s: list = field(default_factory=list)  # (start ns, seconds)
    verify_ns: list = field(default_factory=list)  # (start ns, round trip ns)
    provision_ns: list = field(default_factory=list)  # (start ns, round trip ns)
    measured: Stats = field(default_factory=Stats)
    other: Stats = field(default_factory=Stats)  # set-up and final phase
    elapsed: float = 0.0
    rss_mb: float | None = None
    snapshot: dict | None = None

    def tick(self) -> None:
        """Take a speed probe; call only while no request is in flight."""
        if self.probe is not None:
            self.probe.sample()


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    name: str
    seed: int
    tables: dict  # qualified name -> CSV path, relative to the root
    pristine: Path  # data dir holding the pre-built ledger
    prebuilt: int
    now: int  # the logical clock the data dir starts at
    rows: list
    extra: dict


def prepare(name: str, seed: int, work: Path) -> Inputs:
    """Generate the table and the data dir (ledger history, clock)."""
    from enclave_broker.audit import AuditLedger
    from enclave_broker.canonical import canonical_json

    n = {"select_scan": SCAN_ROWS, "contract_churn": CHURN_ROWS, "ledger_restart": RESTART_ROWS}[name]
    table = "wh.events" if name == "contract_churn" else "wh.orders"
    rows = gen.make_rows(seed, n)
    csv_path = work / "table.csv"
    gen.write_csv(csv_path, rows)
    pristine = work / "pristine"
    pristine.mkdir()
    ledger = AuditLedger(str(pristine / "audit.log"))
    try:
        last = gen.build_history(ledger, seed, HISTORY[name])
    finally:
        ledger.close()
    (pristine / "clock.json").write_text(canonical_json({"now": last}))
    return Inputs(name, seed, {table: str(csv_path)}, pristine, HISTORY[name], last, rows, {})


def fresh_data_dir(inputs: Inputs, path: Path) -> str:
    if path.exists():
        shutil.rmtree(path)
    shutil.copytree(inputs.pristine, path)
    return str(path)


# ----------------------------------------------------------- shared steps


def start(backend, stats: Stats, out: Outcome, tally: Tally, verifies: int = 1):
    """Start an instance, then verify the ledger it opened `verifies` times."""
    t0 = time.perf_counter_ns()
    setup, conn = backend.start(stats)
    out.setup_s.append((t0, setup))
    out.tick()
    for _ in range(verifies):
        do(conn, stats, Call("audit_verify", {}, {"verified": True, "events": tally.events}))
        out.verify_ns.append(stats.samples[-1][1:])
        out.tick()
    return conn


def provision(conn, stats: Stats, tally: Tally, out: Outcome, cid: str, text: str):
    """Submit, activate and broker one contract; returns (token, enclave_id)."""
    do(conn, stats, Call("submit_contract", {"text": text}, {"status": "Draft"}))
    activated = do(conn, stats, Call("activate_contract", {"contract_id": cid}, {"status": "Active"}))
    brokered = do(conn, stats, Call("broker_enclave", {"contract_id": cid}, {"state": "Serving"}))
    out.provision_ns.append(stats.samples[-1][1:])
    out.tick()
    tally.events += 6  # submitted, activated, four enclave transitions
    tally.live += 1
    return (activated or {}).get("token"), (brokered or {}).get("enclave_id")


def bg_drill(account: str, cid: str, tally: Tally):
    """Script steps: a break-glass request that two registered approvers carry."""
    template = gen.contract_text(cid, account, ("id", "region"), [("bucket", "<", 100)], None, tally.source, "10m")
    req = yield Call("bg_request", {"account": account, "template": template}, {"status": "Pending"})
    rid = (req or {}).get("request_id")
    yield Call("bg_approve", {"request_id": rid, "approver": "ops-a"}, {"status": "Pending"})
    yield Call("bg_approve", {"request_id": rid, "approver": "ops-b"}, {"status": "Activated"})
    tally.events += 9  # requested, 2 approved, activated, 4 transitions, alert
    tally.alerts += 1
    tally.bg += 1


def finish(backend, conn, stats: Stats, tally: Tally, out: Outcome) -> None:
    """Break-glass drill, retire everything, and check the ledger and alerts."""
    drill, _ = run_scripts([(bg_drill("resp-0", "bg-final", tally), conn)], lambda: False, threaded=False)
    stats.merge(drill)
    do(conn, stats, Call("tick", {"seconds": 10**7}))
    do(conn, stats, Call("sweep", {}))
    tally.retire_all()
    do(conn, stats, Call("audit_verify", {}, {"verified": True, "events": tally.events}))
    alerts = do(conn, stats, Call("alerts", {}))
    if alerts is not None and len(alerts["alerts"]) != tally.alerts:
        stats.failed += 1
        stats.failures.append(f"alerts: got {len(alerts['alerts'])}, want {tally.alerts}")
    out.snapshot = backend.snapshot()
    backend.stop()


def _session(conn, stats, tally, enclave_id, token):
    opened = do(conn, stats, Call("open_session", {"enclave_id": enclave_id, "token": token}))
    tally.events += 1
    return (opened or {}).get("session_id")


def _close(conn, stats, tally, session_id):
    do(conn, stats, Call("close_session", {"session_id": session_id}, {"closed": True}))
    tally.events += 1


# ------------------------------------------------------------- select_scan


def prepare_select_scan(inputs: Inputs) -> None:
    rows = inputs.rows
    consumers = [
        # A: every column but `note`, rows with id >= 5000 (20k of 25k).
        ("a", "svc-a", ("id", "region", "bucket", "amount", "day"), [("id", ">=", 5000)], None),
        # B: all columns, rows with bucket < 20000, at most 15k rows per answer.
        ("b", "svc-b", None, [("bucket", "<", 20000)], 15000),
    ]
    inputs.extra["consumers"] = []
    for name, principal, columns, pred, row_limit in consumers:
        seg = gen.extract(rows, columns, pred, row_limit, "orders")
        pool = gen.scan_pool(inputs.seed, name, seg, SCAN_POOL)
        inputs.extra["consumers"].append((name, principal, columns, pred, row_limit, pool))


def scan_script(session_id, pool, order, tally: Tally, now: int, units):
    model = MonitorModel()
    done = 0
    for i in order:
        if units is not None and done >= units:
            return
        st = pool[i]
        yield Call("query", {"session_id": session_id, "text": st.text}, st)
        tally.statement(st, model, now)
        done += 1
        yield None


def select_scan(inputs: Inputs, backend, plan: Plan) -> Outcome:
    out = Outcome(probe=plan.probe)
    other = out.other
    tally = Tally(events=inputs.prebuilt, source="wh.orders")
    consumers = inputs.extra["consumers"]
    for rep in range(plan.reps):
        if rep:
            backend.stop()
            tally.restart()
        conn = start(backend, other, out, tally, SETUP_VERIFIES)
        grants = []
        for name, principal, columns, pred, row_limit, _ in consumers:
            cid = f"scan-{name}-{rep}"
            text = gen.contract_text(cid, principal, columns, pred, row_limit, "wh.orders", "24h")
            grants.append(provision(conn, other, tally, out, cid, text))
    conns = [conn, backend.connect()]
    sessions = [_session(c, other, tally, enc, tok) for c, (tok, enc) in zip(conns, grants)]
    scripts, tallies = [], []
    for i, (name, *_, pool) in enumerate(consumers):
        t = Tally()
        order = gen.shuffled_epochs(pool, random.Random(f"stream:{name}:{inputs.seed}"))
        scripts.append(scan_script(sessions[i], pool, order, t, inputs.now, plan.units))
        tallies.append(t)
    out.tick()
    out.measured, out.elapsed = run_scripts(
        list(zip(scripts, conns)), plan.stop_fn(time.perf_counter()), plan.threaded, out.probe
    )
    for t in tallies:
        tally.absorb(t)
    out.rss_mb = backend.rss_mb()
    for c, sid in zip(conns, sessions):
        _close(c, other, tally, sid)
    finish(backend, conns[0], other, tally, out)
    return out


# ---------------------------------------------------------- contract_churn


def prepare_contract_churn(inputs: Inputs) -> None:
    by_bucket = [0] * len(inputs.rows)
    for r in inputs.rows:
        by_bucket[r[2]] = r[0]
    inputs.extra["by_bucket"] = by_bucket
    inputs.extra["cycles"] = [
        [gen.churn_cycle(inputs.seed, c, k, inputs.rows, by_bucket) for k in range(CHURN_PLANNED)] for c in (0, 1)
    ]


class Progress:
    """Counts finished cycles across clients; reads peak RSS at a fixed mark,
    so that the figure reflects a fixed amount of work, not the run length."""

    def __init__(self, backend, mark: int):
        self._lock = threading.Lock()
        self._backend = backend
        self._mark = mark
        self.count = 0
        self.rss_mb = None

    def cycle_done(self) -> None:
        with self._lock:
            self.count += 1
            hit = self.count == self._mark
        if hit:
            self.rss_mb = self._backend.rss_mb()


def churn_script(c: int, inputs: Inputs, tally: Tally, units, progress: Progress):
    planned = inputs.extra["cycles"][c]
    k = 0
    while units is None or k < units:
        cyc = planned[k] if k < len(planned) else gen.churn_cycle(
            inputs.seed, c, k, inputs.rows, inputs.extra["by_bucket"]
        )
        cid = cyc.contract_id
        yield Call("submit_contract", {"text": cyc.text}, {"status": "Draft"})
        activated = yield Call("activate_contract", {"contract_id": cid}, {"status": "Active"})
        brokered = yield Call("broker_enclave", {"contract_id": cid}, {"state": "Serving"})
        opened = yield Call(
            "open_session",
            {"enclave_id": (brokered or {}).get("enclave_id"), "token": (activated or {}).get("token")},
        )
        tally.events += 7
        sid = (opened or {}).get("session_id")
        model = MonitorModel()
        for st in cyc.statements:
            yield Call("query", {"session_id": sid, "text": st.text}, st)
            tally.statement(st, model, 0)  # two denials per session: the clock cannot matter
        yield Call("close_session", {"session_id": sid}, {"closed": True})
        tally.events += 1
        if cyc.revoke:
            yield Call("revoke_contract", {"contract_id": cid, "reason": "done"}, {"status": "Revoked"})
            tally.events += 2  # revoked, enclave shut
        else:
            tally.live += 1
        if k % CHURN_TICK_EVERY == CHURN_TICK_EVERY - 1:
            yield Call("tick", {"seconds": 5})
            yield Call("sweep", {})
        if k % CHURN_BG_EVERY == CHURN_BG_EVERY // 2:
            yield from bg_drill(f"resp-{c}", f"bg-{c}-{k}", tally)
        k += 1
        progress.cycle_done()
        yield None


def contract_churn(inputs: Inputs, backend, plan: Plan) -> Outcome:
    out = Outcome(probe=plan.probe)
    other = out.other
    tally = Tally(events=inputs.prebuilt, source="wh.events")
    for rep in range(plan.reps):
        if rep:
            backend.stop()
            tally.restart()
        conn = start(backend, other, out, tally, SETUP_VERIFIES)
    conns = [conn, backend.connect()]
    progress = Progress(backend, CHURN_RSS_MARK)
    tallies = [Tally(source=tally.source) for _ in conns]
    scripts = [churn_script(c, inputs, tallies[c], plan.units, progress) for c in range(len(conns))]
    out.tick()
    out.measured, out.elapsed = run_scripts(
        list(zip(scripts, conns)), plan.stop_fn(time.perf_counter()), plan.threaded, out.probe
    )
    for t in tallies:
        tally.absorb(t)
    out.provision_ns = [(t0, ns) for op, t0, ns in out.measured.samples if op == "broker_enclave"]
    out.rss_mb = progress.rss_mb if progress.rss_mb is not None else backend.rss_mb()
    finish(backend, conns[0], other, tally, out)
    return out


# ---------------------------------------------------------- ledger_restart


def prepare_ledger_restart(inputs: Inputs) -> None:
    seg = gen.Segment("orders", gen.NAMES, inputs.rows, None)
    inputs.extra["statements"] = gen.restart_statements(inputs.seed, seg)


def ledger_restart(inputs: Inputs, backend, plan: Plan) -> Outcome:
    out = Outcome(probe=plan.probe)
    stats = out.measured
    tally = Tally(events=inputs.prebuilt, source="wh.orders")
    statements = inputs.extra["statements"]
    rng = random.Random(f"stream:restart:{inputs.seed}")
    rss = []
    out.tick()
    t0 = time.perf_counter()
    stop = plan.stop_fn(t0)
    i = 0
    while True:
        if i:
            backend.stop()
            tally.restart()
        conn = start(backend, stats, out, tally, RESTART_VERIFIES)
        grants = []
        for j in range(RESTART_PROVISIONS):
            cid = f"restart-{i}-{j}"
            text = gen.contract_text(cid, "svc-r", None, [], None, "wh.orders", "24h")
            grants.append(provision(conn, stats, tally, out, cid, text))
        token, enclave_id = grants[0]
        sid = _session(conn, stats, tally, enclave_id, token)
        model = MonitorModel()
        for _ in range(RESTART_PASSES):
            for st in rng.sample(statements, len(statements)):
                do(conn, stats, Call("query", {"session_id": sid, "text": st.text}, st))
                tally.statement(st, model, inputs.now)
                out.tick()
        _close(conn, stats, tally, sid)
        rss.append(backend.rss_mb())
        i += 1
        if stop() or (plan.units is not None and i >= plan.units):
            break
    out.elapsed = time.perf_counter() - t0
    out.rss_mb = None if rss[0] is None else max(rss)
    finish(backend, conn, out.other, tally, out)
    return out


WORKLOADS = {
    "select_scan": (prepare_select_scan, select_scan),
    "contract_churn": (prepare_contract_churn, contract_churn),
    "ledger_restart": (prepare_ledger_restart, ledger_restart),
}
