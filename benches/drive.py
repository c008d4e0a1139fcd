"""Send requests to the broker and check every reply.

Two backends answer the same requests: `Daemon` runs `enclave_broker.server`
as its own process and talks NDJSON over its unix socket; `InProcess`
builds a `BrokerCore` on the same data dir and does the daemon's per-line
work (decode, `handle`, canonical encode) in this process. Workload
scripts are generators that yield `Call`s and receive each decoded
result, so both backends replay one stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from gen import Stmt

ACCOUNTS = ("resp-0", "resp-1", "ops-a", "ops-b")  # registered break-glass accounts
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0  # a hung daemon fails the run instead of stalling it
PROBE_EVERY_S = 0.25  # how often a threaded run pauses for a speed probe
_RESULT_MARK = b',"ok":true,"result":'


class Call(NamedTuple):
    """One request. `expect` is None (must succeed), a dict of fields the
    result must carry, or a `Stmt` (its rows, or its denial code)."""

    op: str
    args: dict
    expect: object = None


@dataclass
class Stats:
    """Round trips and outcome counts for one phase of a run."""

    samples: list = field(default_factory=list)  # (op, start ns, round trip ns), in the order sent
    attempted: int = 0
    failed: int = 0
    rows: int = 0  # rows delivered by allowed statements
    select_rows: int = 0  # the SELECT share of `rows`
    failures: list = field(default_factory=list)
    next_id: int = 0

    def merge(self, other: "Stats") -> None:
        self.samples.extend(other.samples)
        self.attempted += other.attempted
        self.failed += other.failed
        self.rows += other.rows
        self.select_rows += other.select_rows
        self.failures.extend(other.failures)

    def by_op(self) -> dict:
        """Round trips (ns) per op, in the order sent."""
        out = defaultdict(list)
        for op, _, ns in self.samples:
            out[op].append(ns)
        return out


def _diagnose(body: bytes, want: dict) -> str:
    """Cell-for-cell comparison of a SELECT result that failed its digest."""
    try:
        got = json.loads(body)
    except ValueError as exc:
        return f"undecodable result: {exc}"
    for key in ("columns", "truncated"):
        if got.get(key) != want[key]:
            return f"{key}: got {got.get(key)!r}, want {want[key]!r}"
    rows, wrows = got.get("rows", []), want["rows"]
    if len(rows) != len(wrows):
        return f"row count: got {len(rows)}, want {len(wrows)}"
    for i, (a, b) in enumerate(zip(rows, wrows)):
        for j, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"row {i} cell {j}: got {x!r}, want {y!r}"
    return "result differs from the oracle only in encoding"


def check(out: bytes, expect):
    """Returns (result, problem); problem is None when the reply is as expected."""
    if isinstance(expect, Stmt) and expect.code is None:
        i = out.find(_RESULT_MARK)
        if not out.startswith(b'{"id":') or i < 0 or not out.endswith(b"}\n"):
            return None, f"expected rows, got {out[:200]!r}"
        body = out[i + len(_RESULT_MARK) : -2]
        if hashlib.sha256(body).hexdigest() == expect.digest:
            return expect.rows, None
        return None, _diagnose(body, expect.result)
    try:
        reply = json.loads(out)
    except ValueError as exc:
        return None, f"undecodable reply: {exc}"
    if isinstance(expect, Stmt):
        code = (reply.get("error") or {}).get("code")
        if reply.get("ok") is False and code == expect.code:
            return None, None
        return None, f"expected {expect.code}, got {out[:200]!r}"
    if reply.get("ok") is not True:
        return None, f"expected success, got {out[:200]!r}"
    result = reply.get("result")
    if isinstance(expect, dict):
        for key, value in expect.items():
            if result.get(key) != value:
                return None, f"{key}: got {result.get(key)!r}, want {value!r}"
    return result, None


def do(conn, stats: Stats, call: Call):
    """One timed round trip; returns the checked result (None on failure)."""
    stats.next_id += 1
    line = json.dumps({"op": call.op, "id": stats.next_id, "args": call.args}, separators=(",", ":"))
    data = line.encode() + b"\n"
    t0 = time.perf_counter_ns()
    out = conn.roundtrip(data)
    ns = time.perf_counter_ns() - t0
    stats.samples.append((call.op, t0, ns))
    stats.attempted += 1
    result, problem = check(out, call.expect)
    if problem is not None:
        stats.failed += 1
        if len(stats.failures) < 20:
            stats.failures.append(f"{call.op} {json.dumps(call.args)[:160]}: {problem}")
        return None
    if isinstance(call.expect, Stmt):
        stats.rows += call.expect.rows
        if call.expect.kind == "Select":
            stats.select_rows += call.expect.rows
    return result


# ------------------------------------------------------------------ daemon


class SocketConn:
    def __init__(self, path: str):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(REPLY_TIMEOUT_S)
        self._sock.connect(path)
        self._reader = self._sock.makefile("rb")

    def roundtrip(self, data: bytes) -> bytes:
        self._sock.sendall(data)
        out = self._reader.readline()
        if not out:
            raise ConnectionError("broker closed the connection")
        return out

    def close(self) -> None:
        self._reader.close()
        self._sock.close()


class Daemon:
    """`enclave_broker.server` as its own process, always with --data-dir.

    Paths are relative to `root`, the daemon's working directory, which
    keeps the socket path under the unix limit wherever the checkout is.
    """

    def __init__(self, root, src, endpoint, data_dir, tables: dict, log_path):
        self.root = root
        self.endpoint = endpoint
        self.cmd = [sys.executable, "-m", "enclave_broker.server", "--endpoint", endpoint, "--data-dir", data_dir]
        for name, path in tables.items():
            self.cmd += ["--table", f"{name}={path}"]
        for account in ACCOUNTS:
            self.cmd += ["--bg-account", account]
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))
        self.log_path = log_path
        self.proc = None
        self.conns: list[SocketConn] = []

    def start(self, stats: Stats):
        """Spawn, wait for the first answered request; returns (seconds, conn)."""
        with open(self.log_path, "ab") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log
            )
        while True:
            try:
                conn = self.connect()
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited with {self.proc.returncode}; see {self.log_path}")
                if time.perf_counter() - t0 > START_TIMEOUT_S:
                    raise RuntimeError("daemon did not start listening")
                time.sleep(0.002)
        do(conn, stats, Call("alerts", {}))
        return time.perf_counter() - t0, conn

    def connect(self) -> SocketConn:
        conn = SocketConn(self.endpoint)
        self.conns.append(conn)
        return conn

    def rss_mb(self) -> float:
        """VmHWM, the daemon's peak resident set, from /proc (read only)."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def snapshot(self):
        return None

    def stop(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.proc is None:
            return
        if self.proc.poll() is None:
            # SIGTERM ends the daemon at once: it installs no handler, and
            # every ledger append was already flushed. (SIGINT is not used:
            # it can land on a thread that never wakes the main one.)
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


# -------------------------------------------------------------- in process


class InProcessConn:
    """The daemon's per-line work without the socket."""

    def __init__(self, core, loads, encode):
        self._core = core
        self._loads = loads
        self._encode = encode

    def roundtrip(self, data: bytes) -> bytes:
        request = self._loads(data.decode("utf-8"))
        response = self._core.handle(request)
        return self._encode(response).encode("utf-8") + b"\n"


class InProcess:
    """A `BrokerCore` on the data dir, configured like the daemon."""

    def __init__(self, data_dir, tables: dict, tracer=None):
        from enclave_broker.broker import BrokerConfig
        from enclave_broker.canonical import canonical_json

        self.config = BrokerConfig(data_dir=data_dir, tables=dict(tables), bg_accounts=ACCOUNTS)
        self.tracer = tracer
        self.loads, self.encode = json.loads, canonical_json
        if tracer is not None:
            self.loads = tracer.wrap("server.decode", json.loads)
            self.encode = tracer.wrap("server.encode", canonical_json)
        self.core = None

    def start(self, stats: Stats):
        from enclave_broker.broker import BrokerCore

        t0 = time.perf_counter()
        self.core = BrokerCore(self.config)
        conn = self.connect()
        do(conn, stats, Call("alerts", {}))
        return time.perf_counter() - t0, conn

    def connect(self) -> InProcessConn:
        return InProcessConn(self.core, self.loads, self.encode)

    def rss_mb(self):
        return None

    def snapshot(self) -> dict:
        """Exact counts of state the core holds at this point."""
        core = self.core
        return {
            "ledger_events": len(core.ledger),
            "ledger_bytes": os.path.getsize(core.ledger.path),
            "alerts": len(core.monitor.alerts()),
            "monitor_events": len(core.monitor.events),
            "enclaves": len(core.enclaves),
        }

    def stop(self) -> None:
        if self.core is not None:
            self.core.close()
            self.core = None


# ------------------------------------------------------------------ runner


def _step(script, conn, stats, result, stop):
    """Advance a script to its next Call; None once it is finished or stopped."""
    try:
        item = script.send(result)
        while item is None:  # a boundary: the only place a script may stop
            if stop():
                script.close()
                return None
            item = script.send(None)
        return item
    except StopIteration:
        return None


class _Pacer:
    """Pauses every connection of a threaded run at once, now and then,
    to take a speed probe while no request is in flight."""

    def __init__(self, n: int, probe):
        self._probe = probe
        self._every_ns = int(PROBE_EVERY_S * 1e9)
        self._next = time.perf_counter_ns() + self._every_ns
        self._barrier = threading.Barrier(n, action=self._act)
        self.paused_s = 0.0

    def _act(self) -> None:
        t0 = time.perf_counter()
        self._probe.sample()
        self.paused_s += time.perf_counter() - t0
        self._next = time.perf_counter_ns() + self._every_ns

    def after_request(self) -> None:
        if time.perf_counter_ns() >= self._next and not self._barrier.broken:
            try:
                self._barrier.wait(REPLY_TIMEOUT_S)
            except threading.BrokenBarrierError:
                pass  # another connection finished; no more pauses

    def leave(self) -> None:
        self._barrier.abort()


def run_scripts(pairs, stop, threaded: bool, probe=None) -> tuple[Stats, float]:
    """Drive (script, conn) pairs; closed loop, one request in flight each.

    Threaded: one thread per connection; with a `probe`, every connection
    pauses every `PROBE_EVERY_S` or so while the probe runs. Otherwise one
    thread steps the scripts in turn, which gives the same order on every
    backend. Returns the merged stats and the elapsed seconds, pauses
    excluded.
    """
    stats = [Stats() for _ in pairs]
    if threaded:
        barrier = threading.Barrier(len(pairs))
        pacer = _Pacer(len(pairs), probe) if probe is not None else None
        spans = [None] * len(pairs)
        errors = []

        def worker(i):
            script, conn = pairs[i]
            try:
                barrier.wait()
                t0 = time.perf_counter()
                call = _step(script, conn, stats[i], None, stop)
                while call is not None:
                    result = do(conn, stats[i], call)
                    if pacer is not None:
                        pacer.after_request()
                    call = _step(script, conn, stats[i], result, stop)
                spans[i] = (t0, time.perf_counter())
            except BaseException as exc:  # reported by the caller after join
                errors.append(exc)
                raise
            finally:
                if pacer is not None:
                    pacer.leave()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(pairs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        elapsed = max(s[1] for s in spans) - min(s[0] for s in spans)
        if pacer is not None:
            elapsed -= pacer.paused_s
    else:
        t0 = time.perf_counter()
        pending = [_step(script, conn, st, None, stop) for (script, conn), st in zip(pairs, stats)]
        while any(c is not None for c in pending):
            for i, ((script, conn), st) in enumerate(zip(pairs, stats)):
                if pending[i] is not None:
                    pending[i] = _step(script, conn, st, do(conn, st, pending[i]), stop)
        elapsed = time.perf_counter() - t0
    merged = Stats()
    for st in stats:
        merged.merge(st)
    return merged, elapsed
