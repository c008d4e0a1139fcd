#!/usr/bin/env python3
"""Run one workload of the broker benchmark and print its metrics.

    python3 benches/run.py --workload select_scan --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the broker is imported from
`src/` of the same checkout. With `--trace 0` the daemon
(`enclave_broker.server --data-dir ...`) is driven over its unix socket
for `--seconds` and the end-to-end metrics are reported, their times
scaled to a reference machine speed by the probe of `speed.py`. With
`--trace 1` a fixed stream of the same workload is replayed over the
socket and five times in process (counting rows, untraced, traced twice,
untraced) and the per-layer metrics are reported. Human-readable lines come first;
the last line of standard output is one JSON object. Scratch files live
under `.bench_work/` at the checkout root; spans of a traced run are
left there as `spans-<workload>.tsv`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import spans
import speed
import workloads
from drive import Daemon, InProcess

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Fixed stream of a traced run: units per client (statements, cycles) or
# restarts; fixed so that its counts repeat exactly for a seed.
TRACE_UNITS = {"select_scan": 40, "contract_churn": 150, "ledger_restart": 1}
TRACE_REPS = 2


def _ms(ns) -> float:
    return ns / 1e6


def _scaled(out):
    """Measured-phase query and op round trips scaled to the reference
    speed of `speed.py`, and the measured phase's length at that speed."""
    m = out.measured
    scale = out.probe.scale
    q = [ns * scale(t, ns) for op, t, ns in m.samples if op == "query"]
    ops = [ns * scale(t, ns) for _, t, ns in m.samples]
    # Closed loops keep every connection busy, so the measured phase at
    # reference speed lasts as much longer as its requests do.
    return q, ops, out.elapsed * sum(ops) / sum(ns for _, _, ns in m.samples)


def end_to_end(out) -> dict:
    """The gated metrics, every time scaled to the reference speed."""
    scale = out.probe.scale
    q, ops, el = _scaled(out)
    return {
        "setup_s": (statistics.median(s * scale(t, int(s * 1e9)) for t, s in out.setup_s), "s", len(out.setup_s)),
        "query_p50_ms": (_ms(spans.pct(q, 0.50)), "ms", len(q)),
        "query_rps": (len(q) / el, "1/s", len(q)),
        "rows_per_s": (out.measured.rows / el, "1/s", len(q)),
        "op_p50_ms": (_ms(spans.pct(ops, 0.50)), "ms", len(ops)),
        "ops_per_s": (len(ops) / el, "1/s", len(ops)),
        "provision_p50_ms": (_ms(statistics.median(ns * scale(t, ns) for t, ns in out.provision_ns)), "ms", len(out.provision_ns)),
        "verify_s": (statistics.median(ns * scale(t, ns) for t, ns in out.verify_ns) / 1e9, "s", len(out.verify_ns)),
        "peak_rss_mb": (out.rss_mb, "MB", 1),
    }


def printed_only(out) -> dict:
    """Not gated: scaled tails, unscaled wall-clock figures, the error rate."""
    m = out.measured
    q, ops, _ = _scaled(out)
    wq = m.by_op()["query"]
    wops = [ns for _, _, ns in m.samples]
    attempted = m.attempted + out.other.attempted
    return {
        "query_p99_ms": (_ms(spans.pct(q, 0.99)), "ms", len(q)),
        "op_p99_ms": (_ms(spans.pct(ops, 0.99)), "ms", len(ops)),
        "wall_setup_s": (statistics.median(s for _, s in out.setup_s), "s", len(out.setup_s)),
        "wall_query_p50_ms": (_ms(spans.pct(wq, 0.50)), "ms", len(wq)),
        "wall_query_p99_ms": (_ms(spans.pct(wq, 0.99)), "ms", len(wq)),
        "wall_op_p50_ms": (_ms(spans.pct(wops, 0.50)), "ms", len(wops)),
        "wall_ops_per_s": (len(wops) / out.elapsed, "1/s", len(wops)),
        "probe_ms": (_ms(statistics.median(out.probe.values)), "ms", len(out.probe.values)),
        "error_rate": ((m.failed + out.other.failed) / attempted, "ratio", attempted),
    }


def per_layer(t, plain, traced, counted, sock, wall_plain, wall_traced, rows_examined) -> dict:
    """Per-layer metrics of a traced run; see benches/README.md for each."""
    us = lambda ns: ns / 1e3  # noqa: E731
    p50 = lambda name: us(spans.pct(t.get(name, []), 0.50))  # noqa: E731
    p99 = lambda name: us(spans.pct(t.get(name, []), 0.99))  # noqa: E731
    med_s = lambda name: spans.median_or_zero(t.get(name, [])) / 1e9  # noqa: E731
    snap = traced.snapshot
    ops = traced.measured.attempted + traced.other.attempted
    appended = snap["ledger_events"] - snap["prebuilt_events"]
    # Both passes send the same requests in the same order, so latencies
    # pair up by op and position; the median difference is the socket's share.
    plain_lat = plain.measured.by_op()
    transport = statistics.median(
        s - p for op, values in sock.measured.by_op().items() for s, p in zip(values, plain_lat[op])
    )
    return {
        "server.decode_us_p50": (p50("server.decode"), "us"),
        "server.encode_us_p50": (p50("server.encode"), "us"),
        "server.transport_us_p50": (us(transport), "us"),
        "broker.handle_us_p50": (p50("broker.handle"), "us"),
        "broker.self_us_p50": (p50("broker.handle.self"), "us"),
        "broker.sweep_us_p50": (p50("broker.sweep"), "us"),
        "broker.sweep_us_p99": (p99("broker.sweep"), "us"),
        "broker.enclaves_retained": (snap["enclaves"], "count"),
        "contract_dsl.parse_us_p50": (p50("contract_dsl.parse"), "us"),
        "contracts.validate_us_p50": (p50("contracts.validate"), "us"),
        "query.parse_us_p50": (p50("query.parse"), "us"),
        "gateway.authorize_us_p50": (p50("gateway.authorize"), "us"),
        "gateway.execute_self_us_p50": (p50("gateway.execute.self"), "us"),
        "gateway.execute_self_us_p99": (p99("gateway.execute.self"), "us"),
        "gateway.rows_examined_per_returned": (rows_examined / max(1, counted.measured.select_rows + counted.other.select_rows), "ratio"),
        "gateway.to_json_us_p50": (p50("gateway.to_json"), "us"),
        "audit.append_us_p50": (p50("audit.append"), "us"),
        "audit.hash_us_p50": (p50("audit.hash"), "us"),
        "audit.events_per_op": (appended / ops, "ratio"),
        "audit.bytes_per_event": ((snap["ledger_bytes"] - snap["prebuilt_bytes"]) / max(1, appended), "B"),
        "audit.load_s": (med_s("audit.load"), "s"),
        "audit.verify_file_s": (med_s("audit.verify_file"), "s"),
        "monitor.record_us_p50": (p50("monitor.record"), "us"),
        "monitor.record_us_p99": (p99("monitor.record"), "us"),
        "monitor.alerts_raised": (snap["alerts"], "count"),
        "monitor.events_retained": (snap["monitor_events"], "count"),
        "store.load_csv_s": (med_s("store.load_csv"), "s"),
        "store.extract_us_p50": (p50("store.extract"), "us"),
        "enclave.provision_us_p50": (p50("enclave.provision"), "us"),
        "breakglass.approve_us_p50": (p50("breakglass.approve"), "us"),
        "trace.overhead_pct": ((wall_traced - wall_plain) / wall_plain * 100.0, "%"),
    }


def _report(workload, metrics: dict, failures, stats=None) -> None:
    print(f"# {workload}: {workloads.WHY[workload]}")
    for op, values in sorted((stats.by_op() if stats else {}).items()):
        print(f"# {workload}  {op:<20} n={len(values):<7} p50 {_ms(spans.pct(values, 0.5)):10.4f} ms")
    for name, (value, unit, *n) in metrics.items():
        extra = f"  (n={n[0]})" if n else ""
        print(f"{workload}  {name:<36} {value:>14.6g} {unit}{extra}")
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)


def timed_run(args, work: Path, inputs) -> dict:
    flow = workloads.WORKLOADS[args.workload][1]
    data_dir = workloads.fresh_data_dir(inputs, work / "data")
    daemon = Daemon(".", str(SRC), str(work / "broker.sock"), data_dir, inputs.tables, str(work / "daemon.log"))
    try:
        out = flow(inputs, daemon, workloads.Plan(seconds=args.seconds, probe=speed.Probe()))
    finally:
        daemon.stop()
    attempted = out.measured.attempted + out.other.attempted
    failed = out.measured.failed + out.other.failed
    metrics = end_to_end(out)
    _report(args.workload, {**metrics, **printed_only(out)}, out.measured.failures + out.other.failures, out.measured)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def traced_run(args, work: Path, inputs) -> dict:
    flow = workloads.WORKLOADS[args.workload][1]
    plan = workloads.Plan(seconds=None, units=TRACE_UNITS[args.workload], reps=TRACE_REPS, threaded=False)
    prebuilt_bytes = (inputs.pristine / "audit.log").stat().st_size

    def in_process(tag, tracer=None):
        gc.collect()
        data_dir = workloads.fresh_data_dir(inputs, work / tag)
        backend = InProcess(data_dir, inputs.tables, tracer)
        t0 = time.perf_counter()
        try:
            out = flow(inputs, backend, plan)
        finally:
            backend.stop()
        out.snapshot.update(prebuilt_events=inputs.prebuilt, prebuilt_bytes=prebuilt_bytes)
        return out, time.perf_counter() - t0

    daemon = Daemon(".", str(SRC), str(work / "broker.sock"), workloads.fresh_data_dir(inputs, work / "sock"), inputs.tables, str(work / "daemon.log"))
    try:
        sock = flow(inputs, daemon, plan)
    finally:
        daemon.stop()
    # The counting pass goes first and warms the process. Untraced and
    # traced passes then run in the order U T T U, so that a machine that
    # drifts faster or slower during the run weighs on both sides alike.
    counter = spans.RowCounter()
    counter.install()
    try:
        counted, _ = in_process("counted")
    finally:
        counter.uninstall()
    plain, wall_plain = in_process("plain")
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, wall_traced = in_process("traced", tracer)
        traced2, wall_traced2 = in_process("traced2", tracer)
    finally:
        tracer.uninstall()
    plain2, wall_plain2 = in_process("plain2")
    wall_plain += wall_plain2
    wall_traced += wall_traced2

    passes = (sock, plain, traced, traced2, plain2, counted)
    problems = []
    for out in passes:
        problems += out.measured.failures + out.other.failures
    failed = sum(o.measured.failed + o.other.failed for o in passes)
    attempted = sum(o.measured.attempted + o.other.attempted for o in passes)
    for out in passes[2:]:
        if out.snapshot != plain.snapshot:
            problems.append(f"exact counts differ between passes: {plain.snapshot} vs {out.snapshot}")
    selfs, span_problems = spans.self_times(tracer.spans)
    problems += span_problems[:10]
    times = spans.layer_times(tracer.spans, selfs)
    metrics = per_layer(times, plain, traced, counted, sock, wall_plain, wall_traced, counter.rows)
    tracer.write(Path(".bench_work") / f"spans-{args.workload}.tsv")
    _report(args.workload, metrics, problems)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exit that runs the clean-up below and stops the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Client and daemon share one CPU (children inherit the affinity). A
    # round trip between two CPUs pays for waking an idle virtual CPU,
    # which on a shared 2-vCPU VM varied run to run by up to 2x.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "enclave_broker" / "server.py").is_file():
        print(f"error: no broker sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    work = Path(".bench_work") / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workloads.prepare(args.workload, args.seed, work)
        workloads.WORKLOADS[args.workload][0](inputs)
        result = (traced_run if args.trace else timed_run)(args, work, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
