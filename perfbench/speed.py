"""Timing corrected for the speed the machine offers at the moment.

On a shared host, other tenants slow this process down by up to 2x,
in episodes that last from one second to minutes (for instance while
a sibling hyper-thread is busy).  Whole runs can fall inside one
episode, so no statistic over the repeats of one run removes it.

The speedometer measures that slowdown directly.  A SIGALRM handler
runs a fixed probe every PERIOD_S seconds in the main thread, on the
CPU the benchmark is running on.  The probe does the kind of work mot3d
does (Python object churn, small dense linear algebra) but calls no
mot3d code, so a change to mot3d cannot change it.  Its duration
tracks the current speed.  An interval is then reported as the
seconds it would have taken at the reference speed: each stretch of it
is scaled by REFERENCE_PROBE_S / (the probe duration measured around
that stretch), and the probes' own time inside it is left out.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1

# Typical probe duration on an unloaded 2-vCPU x86-64 VM; only scales
# the results, which stay comparable between commits on any machine.
REFERENCE_PROBE_S = 1.4e-3

# Probes on each side whose median gives the local probe duration.
_SMOOTH = 2

_MATRIX = np.eye(7) + 0.1


def probe():
    """Fixed work independent of mot3d: dict/tuple churn, a sort, 7x7 algebra."""
    table = {}
    for i in range(1200):
        row = (i * 0.5, math.sqrt(i), str(i))
        table[row[2]] = row
    sorted(table.values(), key=lambda row: row[1])
    for _ in range(100):
        product = _MATRIX @ _MATRIX
        np.linalg.cholesky(product)
        float(product.sum())


class Speedometer:
    """Samples probe durations while running; corrects intervals afterwards."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self._local: list = []
        self._previous = None

    def _sample(self, signum, frame):
        started = time.perf_counter()
        probe()
        self.starts.append(started)
        self.ends.append(time.perf_counter())

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        # Local probe duration at each sample: a median over neighbours,
        # since a single probe is itself noisy.
        self._local = [
            statistics.median(durations[max(0, i - _SMOOTH):i + _SMOOTH + 1])
            for i in range(len(durations))
        ]

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take at the reference speed, probes excluded."""
        starts, ends, local = self.starts, self.ends, self._local
        if not starts:
            return t1 - t0
        total = 0.0
        cursor = t0
        # Probes that overlap the interval split it into stretches; each
        # stretch takes the speed of the nearest probe.
        index = bisect.bisect_right(ends, t0)
        while index < len(starts) and starts[index] < t1:
            if starts[index] > cursor:
                total += (starts[index] - cursor) * self._factor(cursor, starts[index])
            cursor = max(cursor, ends[index])
            index += 1
        if t1 > cursor:
            total += (t1 - cursor) * self._factor(cursor, t1)
        return total

    def _factor(self, t0: float, t1: float) -> float:
        middle = (t0 + t1) / 2.0
        index = bisect.bisect_left(self.starts, middle)
        candidates = [i for i in (index - 1, index) if 0 <= i < len(self.starts)]
        nearest = min(candidates, key=lambda i: abs(self.starts[i] - middle))
        return REFERENCE_PROBE_S / self._local[nearest]
