"""Reference-speed rescaling of wall-clock times.

The 2-vCPU virtual machine this benchmark was written on changes speed by up
to a factor of two within seconds, from causes outside the machine, so raw
seconds from two runs cannot be compared.  Every timed interval is therefore
rescaled to a fixed reference speed: a small pure-Python kernel is timed at
regular points inside the interval and right after it, and each piece of the
interval is multiplied by (KERNEL_NOMINAL_S / k) ** SENSITIVITY, with k the
kernel time measured at the end of that piece.  SENSITIVITY is the measured
slope of log(operation time) against log(kernel time) for repeated identical
operations: the program slows down somewhat more than the kernel does.

Inside the interval the kernel runs from a SIGPROF handler every
SAMPLE_INTERVAL_S of process CPU time; the time spent in the handler is
taken out of the interval by `clock`.  The kernel allocates no
garbage-collected objects, so it never triggers a collection of its own.
"""

from __future__ import annotations

import signal
import statistics
import time

# Reference duration of one kernel call.  Rescaled times are the times the
# program would take on a machine where `kernel()` takes exactly this long.
KERNEL_NOMINAL_S = 0.0004

# log-log slope of program time on kernel time: 1.23 for a BS(1,2)
# canonical_rep, 1.17 for a Heisenberg conjugate (r = 0.95 for both)
SENSITIVITY = 1.2

SAMPLE_INTERVAL_S = 0.01
POST_SAMPLES = 3

_TABLE = {i: (i * 7919) % 1021 for i in range(1024)}
_KERNEL_ROUNDS = 2000


def kernel():
    """Fixed work: dict lookups and small-integer arithmetic."""
    acc = 0
    get = _TABLE.get
    for i in range(_KERNEL_ROUNDS):
        acc = (acc * 3 + get((acc ^ i) & 1023, 0)) & 0xFFFF
    return acc


def factor(kernel_s):
    """Multiplier from seconds at the speed where the kernel took
    `kernel_s` to reference seconds."""
    return (KERNEL_NOMINAL_S / kernel_s) ** SENSITIVITY


def time_kernel():
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


class SpeedProbe:
    """Samples the kernel during timed intervals and rescales them."""

    def __init__(self):
        self.paused = 0.0  # seconds spent inside the sampling handler
        self.samples = []  # (clock() at the sample, kernel seconds)
        self._running = False

    def clock(self):
        """perf_counter() with the sampling handler's own time removed."""
        return time.perf_counter() - self.paused

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        k = time_kernel()
        self.samples.append((t0 - self.paused, k))
        self.paused += time.perf_counter() - t0

    def start(self):
        if self._running:
            return
        # the first calls run before the interpreter has specialized the
        # kernel's bytecode, and would read slow
        t0 = time.perf_counter()
        kernel()
        kernel()
        self.paused += time.perf_counter() - t0
        signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._running = True

    def stop(self):
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._running = False

    def post_kernel(self):
        """Median kernel time measured right now, outside any interval."""
        t0 = time.perf_counter()
        k = statistics.median(time_kernel() for _ in range(POST_SAMPLES))
        self.paused += time.perf_counter() - t0
        return k

    def rescale(self, c0, c1, tail_kernel, first=0):
        """Reference-speed seconds of the interval [c0, c1] of `clock`.

        Each piece between consecutive in-interval samples is scaled by the
        kernel time sampled at its end; the last piece by `tail_kernel`.
        `first` is the index in `samples` from which to look for samples.
        """
        total = 0.0
        start = c0
        for t, k in self.samples[first:]:
            if t <= c0:
                continue
            if t >= c1:
                break
            total += (t - start) * factor(k)
            start = t
        total += (c1 - start) * factor(tail_kernel)
        return total

    def timed(self, fn, *args):
        """(result, reference seconds, raw seconds) of one call."""
        first = len(self.samples)
        c0 = self.clock()
        result = fn(*args)
        c1 = self.clock()
        tail = self.post_kernel()
        return result, self.rescale(c0, c1, tail, first), c1 - c0
