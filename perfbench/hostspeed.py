"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass takes anywhere from 1x to 1.8x its fastest time, in spells that
last from a fraction of a second to minutes (measured on a 2-vCPU x86-64
VM).  Between two CLI commands the benchmark therefore runs a fixed piece
of pure-Python work, ``sample()``, of the same kind the program does
(integer, dict and ``Fraction`` arithmetic), and scales each command's wall
time by ``REFERENCE_S`` over the mean of the samples taken just before and
just after it.  The scaled time is what the command would have taken on a
host that runs ``sample()`` in ``REFERENCE_S`` seconds.  Calibration time is
never counted as program time.  Samples between commands, not only between
jobs, follow the host through the long jobs (a double of A4 runs for 3-5 s).

On the host above, ten runs of one workload spread by 5-37% of their median
(first to third quartile) in raw wall time and by 3-7% once scaled this way.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Seconds that sample() takes on the reference host; near its fast-state
# time on the host above, so scaled times read close to raw wall times.
REFERENCE_S = 0.0025


def _work():
    table = {}
    total = Fraction(0)
    for i in range(10000):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i * i
        if i % 50 == 0:
            total += Fraction(i, key + 1)
    return len(sorted(table.items())), total


def sample():
    """Seconds one fixed piece of work takes on the host right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Meter:
    """Wall time of consecutive segments of program work, raw and scaled.

    ``start()`` takes a calibration sample; each ``lap()`` ends the current
    segment and takes the next sample.  A segment is scaled by the mean of
    the samples on either side of it.  With ``calibrate=False`` no samples
    are taken and scaled times equal raw times.  ``segments`` holds the raw
    times.
    """

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.segments = []
        self.samples = []
        self._t = 0.0

    def start(self):
        self.segments, self.samples = [], []
        self._sample()

    def lap(self):
        self.segments.append(time.perf_counter() - self._t)
        self._sample()

    def _sample(self):
        if self.calibrate:
            self.samples.append(sample())
        self._t = time.perf_counter()

    def scaled(self):
        if not self.calibrate:
            return list(self.segments)
        return [
            seg * 2 * REFERENCE_S / (before + after)
            for seg, before, after in zip(self.segments, self.samples, self.samples[1:])
        ]
