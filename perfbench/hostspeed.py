"""Host speed sampled during a job, to rescale its wall time.

On a shared virtual machine the same single-threaded work runs up to 1.6
times slower for seconds to minutes at a time, and CPU time slows with it,
so neither clock separates the program from the host.  A sampler that
times a fixed reference computation before and after a job misses changes
that happen while the job runs.  This one samples throughout: a real-time
interval timer interrupts the job every INTERVAL_S seconds, and the signal
handler times one REFERENCE computation (a few milliseconds of exact
rational arithmetic, the package's own kind of work).  A wall time measured
between two marks, less the time spent in the handler, is rescaled by the
mean of REFERENCE_S / sample over the samples taken between them: the
seconds it would have taken on a host that runs the reference in
REFERENCE_S.

The job stays one caller in one thread: the handler runs in the main
thread between bytecodes, and each sample is taken with the job paused.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.25
FIRST_S = 0.02
# Reference seconds of one REFERENCE call, chosen so that on a 2-vCPU
# virtual machine with Python 3.11.7 rescaled wall times average out close
# to the measured ones.  A constant: it only sets the unit.
REFERENCE_S = 0.003

_MATRIX = [[Fraction(1 + (3 * i + 5 * j) % 11, 1 + (i + 2 * j) % 7) for j in range(6)]
           for i in range(6)]


def reference():
    """Determinant of a fixed 6 x 6 rational matrix by fraction-exact
    elimination, five times; a fixed amount of work on every call."""
    for _ in range(5):
        rows = [row[:] for row in _MATRIX]
        det = Fraction(1)
        for c in range(6):
            p = next(r for r in range(c, 6) if rows[r][c] != 0)
            if p != c:
                rows[c], rows[p] = rows[p], rows[c]
                det = -det
            det *= rows[c][c]
            for r in range(c + 1, 6):
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


START = (0, 0.0)  # the mark of a sampler's creation


class Sampler:
    """Samples host speed from `__enter__` to `__exit__`.

    `mark()` notes a point of the job.  Between two marks, `speeds` gives
    the host speed of each sample taken and `rescale` turns the wall time
    measured into reference seconds.
    """

    def __init__(self):
        self.samples = []  # seconds per REFERENCE call
        self.paused_s = 0.0  # time spent sampling, to be left out of wall times

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - entered)
        self.paused_s += time.perf_counter() - entered

    def __enter__(self):
        entered = time.perf_counter()
        reference()  # warm-up, not a sample
        self.paused_s += time.perf_counter() - entered
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # the first sample comes soon, so that a set-up of 0.1 s has one;
        # not at once, since a sample taken right after the warm-up reads fast
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return len(self.samples), self.paused_s

    def speeds(self, begin, end):
        """Host speed of each sample taken between two marks, relative to
        the reference host (above 1: faster); the latest sample if none
        was taken between them."""
        samples = self.samples[begin[0]:end[0]] or self.samples[-1:]
        return [REFERENCE_S / s for s in samples]

    def rescale(self, wall_s, begin, end):
        """`wall_s`, measured from mark `begin` to mark `end`, less the time
        spent sampling in between, in reference seconds."""
        return (wall_s - (end[1] - begin[1])) * statistics.fmean(self.speeds(begin, end))
