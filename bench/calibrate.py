"""Speed probes that put timings on a fixed machine-speed scale.

On a shared virtual machine the same code runs up to twice as fast or as
slow from one second to the next and from one minute to the next, as
other guests load the host's cores and caches; the guest sees this as
slower instructions, not as stolen time, so CPU time drifts just as wall
time does.  The benchmark therefore times a fixed piece of pure-Python
work, a *probe*, between operations, and scales each timing by
REFERENCE_S over the median probe time around it, raised to ELASTICITY.
A timing then reads as the seconds the same work would take at the speed
the probe runs at in REFERENCE_S.  The probe does not touch the library,
so a change to the library moves the scaled timings as much as the raw
ones.

The probe mixes what the library's inner loops do: integer arithmetic,
reading dicts keyed by tuples and strings, and building such dicts from
freshly allocated keys.  Its working set fits in a core's own caches, so
how much memory the library touched just before does not change its
time, and it runs with the garbage collector off, so the size of the
library's heap does not either.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from time import perf_counter

# about the median probe time on a 2-vCPU Xeon VM (2.1 GHz, Python 3.11.7)
REFERENCE_S = 0.005
# a probe runs after an operation once this much time has passed since the last
PROBE_EVERY_S = 0.1
# When the probe runs x times faster, the library's operations run about
# x ** ELASTICITY times faster: its larger working sets gain less from a
# quiet host than the probe's cache-resident loop does.  The value keeps
# the run-to-run spread of wall_s lowest across the four workloads.
ELASTICITY = 0.8
# a timing is scaled by the median of the probes this close to its midpoint ...
WINDOW_S = 1.5
# ... and of at least this many probes nearest to it
MIN_PROBES = 7

_ARENA = None


def _arena() -> list:
    """A fixed 2^12-entry working set of small tuples, built once per process."""
    global _ARENA
    if _ARENA is None:
        rng = random.Random("probe arena")
        _ARENA = [(rng.randrange(1 << 12), str(i)) for i in range(1 << 12)]
    return _ARENA


def probe_work() -> int:
    arena = _arena()
    counts: dict = {}
    j = total = 0
    for i in range(6000):  # a walk over the cache-resident arena
        j, word = arena[j]
        key = (word[-1], i & 7)
        counts[key] = counts.get(key, 0) + 1
        total += (j * i) % 13
    fresh: dict = {}
    for i in range(3000):  # a dict of freshly allocated tuple keys
        key = (i % 61, i % 7, str(i & 255))
        fresh[key] = fresh.get(key[:2], 0) + i
    return total + len(counts) + len(fresh)


class SpeedClock:
    """Probes taken during a run, and the scaling of timings by them."""

    def __init__(self):
        _arena()
        self.mids: list = []  # midpoint of each probe, increasing
        self.times: list = []  # duration of each probe
        self.last = float("-inf")
        self.spent = 0.0  # total time inside probes

    def probe(self) -> None:
        # with the collector on, a probe's time would depend on the size of the library's heap
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self.last = t1
        self.spent += t1 - t0

    def maybe_probe(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def speed_at(self, t: float) -> float:
        """Median probe time around the moment ``t``."""
        lo = bisect.bisect_left(self.mids, t - WINDOW_S)
        hi = bisect.bisect_right(self.mids, t + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.mids)):
            # widen towards the nearer of the two neighbouring probes
            if hi >= len(self.mids) or (lo > 0 and t - self.mids[lo - 1] <= self.mids[hi] - t):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.times[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end`` on the reference speed scale."""
        return (end - start) * (REFERENCE_S / self.speed_at((start + end) / 2)) ** ELASTICITY
