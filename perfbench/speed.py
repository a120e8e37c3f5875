"""Machine-speed probe used to put timings on a fixed reference speed.

On a shared machine the same pure-Python work can take 1.5 times longer for
seconds to minutes at a time, which swamps the differences the benchmark is
meant to show.  A short probe that touches no logifold code runs between
timed calls (at most every `PROBE_EVERY_S`); each timed interval is scaled by
``PROBE_REF_S / median(probes taken within PROBE_WINDOW_S of it)``, i.e. to
the time it would take on a machine where the probe takes `PROBE_REF_S`.
Raw wall times are reported alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

PROBE_LOOPS = 10_000
PROBE_REF_S = 1e-3
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25


def probe() -> float:
    """Seconds taken by a fixed dict-and-integer loop."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(PROBE_LOOPS):
        k = i % 97
        acc[k] = acc.get(k, 0) + i * i % 7
    return time.perf_counter() - t0


class SpeedLog:
    """Probe times stamped with when they ran."""

    def __init__(self):
        self.stamps = []
        self.probes = []

    def maybe_probe(self):
        now = time.perf_counter()
        if not self.stamps or now - self.stamps[-1] >= PROBE_EVERY_S:
            self.probes.append(probe())
            self.stamps.append(now)

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second during [t0, t1]."""
        lo = bisect.bisect_left(self.stamps, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + PROBE_WINDOW_S)
        near = self.probes[lo:hi]
        if not near:  # no probe close by: use the nearest one
            i = min(bisect.bisect_left(self.stamps, t0), len(self.stamps) - 1)
            near = self.probes[max(i - 1, 0):i + 1]
        return PROBE_REF_S / statistics.median(near)

    def summary(self) -> dict:
        ms = sorted(p * 1e3 for p in self.probes)
        return {"probes": len(ms), "probe_ms_min": ms[0], "probe_ms_median": statistics.median(ms),
                "probe_ms_max": ms[-1]}
