"""Host-speed probe: corrects timings for the slow spells of a shared host.

On a host whose cores are shared, neighbours slow every instruction of
this process for spells of 10 to 40 seconds, by up to a factor of two.  CPU
time slows as much as wall time, so neither escapes it.  The probe is a
fixed piece of pure-Python work shaped like the calculator's hot path
(dict-of-Fraction polynomial products).  It slows in step with the
calculator (see DESIGN.md).

`SpeedMonitor` runs the probe on a SIGALRM timer, in this thread, while
timed work runs.  `corrected(start, end)` returns the seconds an interval
would have taken at the reference speed: its length without the probe's
own time, times the mean of REFERENCE_PROBE_S / probe time over the probes
taken in and around the interval.  On an idle host the correction is close
to 1.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Probe time on an uncontended host: 2 vCPUs of an Intel Xeon at 2.0 GHz,
# Python 3.11.7.  Only the scale of corrected times depends on it.
REFERENCE_PROBE_S = 0.0027
INTERVAL_S = 0.2
WINDOW_S = 1.5

_A = [Fraction(i + 1, 2 * i + 3) for i in range(24)]
_B = [Fraction(3 * i + 1, i + 7) for i in range(24)]


def probe():
    out = {}
    for e1, c1 in enumerate(_A):
        for e2, c2 in enumerate(_B):
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return out


def probe_seconds():
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def speed_factor(probe_times):
    """Reference seconds per measured second, from a list of probe times."""
    return statistics.fmean(REFERENCE_PROBE_S / p for p in probe_times)


class SpeedMonitor:
    """Probe samples taken every INTERVAL_S while the monitor is entered."""

    def __init__(self):
        self.starts = []     # probe start times, increasing
        self.ends = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _between(self, lo, hi):
        return range(bisect.bisect_left(self.starts, lo), bisect.bisect_right(self.starts, hi))

    def corrected(self, start, end):
        own = sum(self.ends[i] - self.starts[i] for i in self._between(start, end)
                  if self.ends[i] <= end)
        near = self._between(start - WINDOW_S, end + WINDOW_S)
        if not near:
            if not self.starts:
                raise RuntimeError("no speed probe was taken")
            i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
            near = [i]
        factor = speed_factor([self.ends[i] - self.starts[i] for i in near])
        return (end - start - own) * factor
