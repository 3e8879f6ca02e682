"""Host-speed probe: a fixed reference kernel timed next to the workload.

The benchmark runs on a few cores of a shared host whose speed drifts
with the load of other tenants: the same loop runs up to 1.9x slower
for tens of seconds at a time, and every piece of code in the process
slows down together.  So each pass times this kernel every ``INTERVAL_S`` while it
works (from a timer signal, between bytecodes of the main thread) and
reports its times in *reference seconds*: each stretch of work between
two probes is scaled by ``REF_PROBE_S`` over the median time of the
``NEAREST`` probes around it.  The probes' own time is taken out.

A change under ``src/`` cannot move the probe, so it shows in full.  The
kernel mixes the two kinds of work the simulator does: interpreted
Python over dicts, lists and ints, and NumPy gathers and arithmetic on
arrays of a few hundred KB.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

#: median probe time on the host the benchmark was built on (a 2-vCPU
#: VM on a shared x86-64 host, in its faster state); it only sets the
#: scale of the figures
REF_PROBE_S = 0.0055

#: seconds between probes while a pass works
INTERVAL_S = 0.1

#: probes whose median gives the host speed at one moment
NEAREST = 9

_ROWS = 1 << 15
_INDEX = (np.arange(_ROWS, dtype=np.int64) * 7919) % _ROWS


def _kernel() -> float:
    table = {}
    acc = 0
    for i in range(18000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    rows = [[i, i + 1] for i in range(900)]
    acc += sum(r[0] * r[1] for r in rows)
    plane = np.arange(_ROWS, dtype=np.float64)
    for _ in range(36):
        plane = plane[_INDEX] * 1.0001 + 1.0
    return acc + float(plane[-1])


class Sampler:
    """Probe samples ``(start, seconds)`` of one process, in time order."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        _kernel()                       # warm-up, not kept

    def probe(self, reps: int = 1) -> None:
        for _ in range(reps):
            start = time.perf_counter()
            _kernel()
            self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        """Probe every ``INTERVAL_S`` until :meth:`stop`."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.sort()             # a probe may nest in a slow one

    def factor(self, samples=None) -> float:
        """Reference seconds per measured second over ``samples``
        (default: all of them)."""
        samples = self.samples if samples is None else samples
        return REF_PROBE_S / statistics.median(d for _, d in samples)

    def _factor_at(self, moment: float) -> float:
        starts = [t for t, _ in self.samples]
        i = bisect.bisect_left(starts, moment)
        lo = max(0, min(i - NEAREST // 2, len(starts) - NEAREST))
        return self.factor(self.samples[lo:lo + NEAREST])

    def reference_seconds(self, start: float, end: float) -> float:
        """The work between two ``perf_counter`` stamps, without the
        probes inside it, in reference seconds."""
        total = 0.0
        cursor = start
        inside = [s for s in self.samples if start <= s[0] < end]
        for at, seconds in inside + [(end, 0.0)]:
            if at > cursor:
                total += (at - cursor) * self._factor_at((cursor + at) / 2)
            cursor = max(cursor, at + seconds)
        return total
