"""The host's speed, measured alongside the workload it slows.

The benchmark runs on virtual machines that share their cores.  There,
the speed of pure-Python code flips between states within seconds and
drifts over minutes: one `verify-a2` item took 2.3 s, then 1.3 s a few
seconds later, with the same work, and one `boundary-torus` item read
995 ms and then 634 ms three minutes later.  A timing of the program
alone reads those states as well as the program.  So while the workload
runs, a timer signal every EVERY_S seconds interrupts it to time a fixed
chunk of exact arithmetic, of the same kind as `ucz`'s and sharing no code
with it.  The time spent in chunks is taken out of the item that was
interrupted, and each item's time is scaled to a host on which the chunk
takes REFERENCE_CHUNK_S, by the median of the chunks timed during it and
within WINDOW_S of it.  A set-up, which runs in a process of its own, is
scaled by chunks that process times right after it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction

import oracles

# about the chunk's median on the 2-vCPU VM the reference figures come from;
# any fixed value would do, it only sets the scale of the reported times
REFERENCE_CHUNK_S = 0.005
EVERY_S = 0.1
WINDOW_S = 0.5
# a timing with fewer chunks in its window takes the nearest ones instead
MIN_CHUNKS = 3

_A = [[Fraction((3 * i + 5 * j) % 13 - 6, 1 + (i * j) % 4) for j in range(8)] for i in range(8)]


def chunk():
    """Fixed exact arithmetic: a product and an elimination of 8x8 rational matrices."""
    return oracles.echelon(oracles.matmul(_A, _A))


def chunk_time(clock, times: int = 5) -> float:
    """The median time of `times` chunks, timed one after the other."""
    spans = []
    for _ in range(times):
        start = clock()
        chunk()
        spans.append(clock() - start)
    return statistics.median(spans)


class HostSpeed:
    """Chunk timings along the run, (midpoint, seconds) in the order taken.

    `spent` is the total time spent in chunks, so that a caller can take it
    out of the span it was measuring.
    """

    def __init__(self, clock, every: float = EVERY_S):
        self.clock = clock
        self.every = every
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        """Time one chunk, unless a signal came while one was being timed."""
        if self._busy:
            return
        self._busy = True
        start = self.clock()
        chunk()
        end = self.clock()
        self.samples.append(((start + end) / 2, end - start))
        self.spent += end - start
        self._busy = False

    def start(self) -> None:
        """Sample every `every` seconds, on SIGALRM, from now until `stop`."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_chunk(self) -> float:
        return statistics.median(s for _, s in self.samples)

    def scale(self, start: float, end: float) -> float:
        """Multiplies a time measured from `start` to `end` into a time on the reference host."""
        lo = bisect.bisect_left(self.samples, (start - WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (end + WINDOW_S, float("inf")))
        near = self.samples[lo:hi]
        if len(near) < MIN_CHUNKS:
            near = sorted(self.samples, key=lambda sample: max(start - sample[0], sample[0] - end))
            near = near[:MIN_CHUNKS]
        return REFERENCE_CHUNK_S / statistics.median(s for _, s in near)
