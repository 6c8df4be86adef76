"""Readings of the host's speed all through a run, and timings scaled
to a reference speed.

A host that shares its cores with other machines runs the same code at
two speeds, about 1.75x apart, that alternate every few hundred
milliseconds; the mix drifts over minutes (see README, *Timings on a
shared host*).  Wall-clock medians of two runs of the same code then
differ by up to a third.  So while a run measures, a timer signal runs
a short fixed loop on the main thread every :data:`INTERVAL_S` seconds
and records how long it took.  The loop runs twice and the second run
is timed, so what the program left in the caches does not matter.  A
sample is reported as its wall-clock time without the readings, times
the loop's time on the reference host over its mean time in the
readings taken during the sample and on either side of it: the
sample's time at the reference host's speed.

The readings must run on the CPU that does the work, and a vCPU of a
shared host changes speed independently of its neighbour.  So the run
is pinned to one CPU, and so is every thread it starts.  The workloads'
work is serial anyway (serial segments, serial Gibbs; the serving
layer's threads take turns under the GIL), so this takes nothing away
from them.

The loop runs none of the program's code, so a change to the program
does not change the readings.  The readings land in whichever span
is open; in a traced run they are part of the layers' self times
(about 2% of them).
"""

from __future__ import annotations

import gc
import os
import signal
import time
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import List, Tuple

#: seconds of one reference loop on the 2-core reference host, rounded
#: up from its faster state (~0.45 ms); timings are reported at that speed
REFERENCE_LOOP_S = 0.0005
#: seconds between speed readings
INTERVAL_S = 0.05

_KEYS = [(n, n % 97, str(n)) for n in range(2000)]
_INDEX = {key: n for n, key in enumerate(_KEYS)}


def reference_loop() -> int:
    """Fixed interpreter work of the kinds the program does: tuple-keyed
    dict lookups, small tuples, a keyed sort."""
    total = 0
    for key in _KEYS:
        total += _INDEX[key] + len(key[2])
        pair = (key[1], key[0])
        total ^= pair[0]
    for key in sorted(_KEYS, key=itemgetter(1)):
        total += key[0]
    return total


class HostSpeed:
    """Pins the calling thread to one CPU and takes speed readings while
    the ``with`` block runs.  Only the main thread may use it (Python
    runs signal handlers there)."""

    def __init__(self) -> None:
        #: start and end (``perf_counter``) of every reading, in order
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: seconds of the timed loop of every reading
        self.loops: List[float] = []
        self._busy = False

    def read(self, *_signal) -> None:
        if self._busy:  # a signal that arrived during a reading
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap
        began = time.perf_counter()
        reference_loop()  # untimed: brings its data back into the cache
        started = time.perf_counter()
        reference_loop()
        ended = time.perf_counter()
        if collecting:
            gc.enable()
        self.loops.append(ended - started)
        self.ends.append(ended)
        self.starts.append(began)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        # threads started inside the block inherit the mask
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self._previous = signal.signal(signal.SIGALRM, self.read)
        self.read()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read()

    def scale(self, start: float, end: float) -> Tuple[float, float]:
        """The wall-clock seconds of a sample from ``start`` to ``end``
        without the readings inside it, and those seconds at the
        reference speed."""
        first = bisect_left(self.starts, start)
        last = bisect_right(self.starts, end)
        wall = end - start - sum(self.ends[k] - self.starts[k] for k in range(first, last))
        around = self.loops[max(first - 1, 0):last + 1]
        mean = sum(around) / len(around)
        return wall, wall * REFERENCE_LOOP_S / mean
