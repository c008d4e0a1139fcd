"""Machine speed, sampled between requests, to scale round trips.

The machine this benchmark was sized on is a shared VM whose CPU speed
drifts by a quarter or more in spells that last from seconds to minutes;
process CPU time drifts with wall time, so the spells are a slower CPU,
not preemption. `Probe` times a fixed piece of pure-Python work of the
kind the broker does per request (filter rows, build lists, canonical
JSON, SHA-256) at moments when no request is in flight. `scale(t, d)`
is `REF_NS` over the median probe time around the interval `[t, t + d]`:
a round trip over that interval, multiplied by it, is the round trip on
a machine where the probe takes `REF_NS`. Code changes to the broker do
not touch the probe, so they show in scaled figures in full.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import random
import statistics
import time

REF_NS = 1_400_000  # the probe's time on the reference machine: a quiet moment of the sizing VM
WINDOW_NS = 500_000_000  # probes within this distance of a sample set its scale
_REPS = 3  # runs of the work per probe; the probe keeps their median


class Probe:
    def __init__(self):
        rng = random.Random("probe")
        regions = ("apac", "emea", "amer", "latam", "anz", "nordics", "dach", "benelux")
        self._rows = [
            (i, rng.choice(regions), rng.randrange(3000), round(rng.uniform(0.0, 1000.0), 2),
             f"2020-{1 + i % 12:02d}-{1 + i % 28:02d}", "n" * rng.randint(6, 12))
            for i in range(3000)
        ]
        self.times: list[int] = []  # when each probe started (perf_counter_ns)
        self.values: list[int] = []  # its time, ns

    def _work(self) -> bytes:
        kept = [r for r in self._rows if r[2] < 1500 and r[1] != "nordics"]
        rows = [[r[0], r[3], r[4], r[5]] for r in kept]
        body = json.dumps({"rows": rows}, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        return hashlib.sha256(body.encode()).digest()

    def sample(self) -> None:
        # A cyclic collection would charge the client's own heap to the probe.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            runs = []
            for _ in range(_REPS):
                t0 = time.perf_counter_ns()
                self._work()
                runs.append(time.perf_counter_ns() - t0)
        finally:
            if enabled:
                gc.enable()
        self.times.append(start)
        self.values.append(sorted(runs)[_REPS // 2])

    def scale(self, t_ns: int, dur_ns: int) -> float:
        """Factor for a sample that ran from `t_ns` for `dur_ns`: from the
        probes taken within `WINDOW_NS` of that interval, else the nearest."""
        ts = self.times
        lo = bisect.bisect_left(ts, t_ns - WINDOW_NS)
        hi = bisect.bisect_right(ts, t_ns + dur_ns + WINDOW_NS)
        if lo == hi:
            i = min(lo, len(ts) - 1)
            if i > 0 and t_ns - ts[i - 1] < ts[i] - t_ns:
                i -= 1
            return REF_NS / self.values[i]
        return REF_NS / statistics.median(self.values[lo:hi])
