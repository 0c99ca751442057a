"""Host speed sampler for the fedchain benchmark.

On a shared 2-vCPU virtual machine (Intel Xeon) the same code runs at two
speeds about 1.5 times apart, switching every few seconds (see README.md).
That swing is larger than any bound a benchmark could hold, so the benchmark
measures it: a timer signal runs a fixed pure-Python probe every
`INTERVAL_S` seconds of wall time and records how long the probe took. A
stretch of wall time is then converted to *reference seconds*, the time it
would have taken on a host where the probe takes `REF_PROBE_S`:

    reference seconds = (wall seconds - probe time inside) * mean(REF_PROBE_S / probe time)

Each sample runs the probe twice and times the second run, so the probe's
time does not depend on what the program left in the caches.

The probe is part of the benchmark, not of the program, so a change to the
program cannot move it. Signals only: no thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
PROBE_LOOPS = 1500
# About the probe's time at the faster of that machine's two speeds; it only
# sets the scale of reference seconds.
REF_PROBE_S = 0.00018


def probe() -> int:
    """Fixed interpreter work: integer arithmetic and small-dict stores."""
    d: dict[int, int] = {}
    s = 0
    for i in range(PROBE_LOOPS):
        d[i & 63] = s
        s += i * 7 % 13
    return s


class HostSpeed:
    """Samples the probe's time on a wall-clock timer between `start` and
    `stop`, and converts intervals of wall time to reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each probe's start
        self.ends: list[float] = []
        self.speeds: list[float] = []  # REF_PROBE_S / probe time

    def _sample(self, signum, frame) -> None:
        begin = time.perf_counter()
        probe()  # untimed: brings the probe into cache after the program's work
        t = time.perf_counter()
        probe()
        end = time.perf_counter()
        self.starts.append(begin)
        self.ends.append(end)
        self.speeds.append(REF_PROBE_S / (end - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]: its wall time less
        the probes run inside it, times the mean speed of those probes (of the
        nearest probe on each side when none ran inside)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = sum(self.ends[j] - self.starts[j] for j in range(lo, hi))
        speeds = self.speeds[lo:hi] or self.speeds[max(lo - 1, 0):lo + 1]
        if not speeds:  # the sampler never ran; leave the interval as measured
            return t1 - t0
        return (t1 - t0 - inside) * statistics.fmean(speeds)

    def median_speed(self) -> float:
        return statistics.median(self.speeds) if self.speeds else 0.0
