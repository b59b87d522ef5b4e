"""Machine-speed sampling, so that timings on a shared host can be compared.

On a shared host the same Python code runs up to a third slower for stretches
of a fraction of a second to several seconds, as other tenants load the
hardware.  While a phase runs, a SIGALRM timer fires every INTERVAL seconds
and its handler times a fixed chunk of pure-Python integer work that
allocates nothing the garbage collector tracks.

`Speedometer.clock()` leaves out the handler's own time, so intervals timed
with it hold only the program's work.  `scaled(begin, end)` turns such an
interval into seconds at reference speed: it is multiplied by `factor`,
REFERENCE_S over the mean chunk time sampled during the interval (widened to
the MIN_TICKS nearest samples when the interval is short).  The samples also
describe the host while a child process works on the other CPU, which is how
set-up times are scaled.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL = 0.02
MIN_TICKS = 10
CHUNK_STEPS = 10000
# mean chunk time on the machine named in README.md; it only fixes the scale
REFERENCE_S = 0.0009


def _chunk():
    s = 0
    for i in range(CHUNK_STEPS):
        s = (s * 31 + i) & 0xFFFFF
    return s


class Speedometer:
    def __init__(self):
        self.spent = 0.0
        self.at = []          # clock() when each sample was taken
        self.took = []        # seconds the chunk took
        self._busy = False
        self._previous = None

    def clock(self):
        return perf_counter() - self.spent

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        _chunk()
        took = perf_counter() - t0
        self.at.append(t0 - self.spent)
        self.took.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def factor(self, begin, end):
        """Reference speed over the speed sampled during [begin, end]."""
        at = self.at
        i, j = bisect.bisect_left(at, begin), bisect.bisect_right(at, end)
        while j - i < MIN_TICKS and (i > 0 or j < len(at)):
            if j >= len(at) or (i > 0 and begin - at[i - 1] <= at[j] - end):
                i -= 1
            else:
                j += 1
        return REFERENCE_S / statistics.fmean(self.took[i:j])

    def scaled(self, begin, end):
        """end - begin, in seconds at reference speed."""
        return (end - begin) * self.factor(begin, end)
