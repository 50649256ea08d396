"""Host-speed calibration: a fixed reference kernel sampled on a timer.

The reference host (2 vCPUs of a shared machine) runs everything up to
2.3x slower, in stretches from a fraction of a second to minutes, and
process CPU time slows with wall time, so the slowdown is the CPU's own
speed, not descheduling.  No repetition inside a run can undo a slow
stretch that outlasts it.  The benchmark therefore runs a ~1 ms kernel
that does not use parcot (interpreter-bound dict and integer work, then
small numpy mat-vecs dispatched one by one, the same mix as the toy
engine) from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds of an
untraced run, inside operations as well as between them, and expresses
the run's times at the reference speed (set-ups, of ~10 ms each, are
also bracketed by a few samples taken on the spot):

    host = mean kernel time / NOMINAL_S
    time at reference speed = measured time / (1 + share * (host - 1))

Every time the benchmark takes is read from ``now()``, which leaves out
the time spent in the handler, so no kernel time falls inside a timed
interval.  Because the samples are spread evenly over wall time, the
mean of the samples taken during a unit is the slowdown that unit's
measured times suffer too.  ``NOMINAL_S`` is the kernel's cost on the
reference host at full speed, so the figures read as that host's time
at full speed.  ``share`` is how much of the kernel's slowdown a
workload's code suffers (its ``slowdown_share``, fitted per workload):
about 1 for the engine workloads, whose session times track the kernel
samples taken inside them (correlation 0.95 over single sessions), more
for many tiny numpy calls and less for memory-bound work.

A change to parcot moves the measured time and not the kernel, so it
shows in full; the raw times are printed beside.
"""

import signal
import time
from array import array

import numpy as np

NOMINAL_S = 0.9e-3  # the kernel on the reference host at full speed
INTERVAL_S = 0.05  # one sample per this many seconds of wall time

_RNG = np.random.default_rng(12345)
_MATS = _RNG.standard_normal((4, 64, 64))
_VEC = _RNG.standard_normal(64)

_spent = 0.0  # seconds spent in the handler so far


def kernel() -> float:
    table: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += i % 7
    x = _VEC
    for _ in range(20):
        for w in _MATS:
            h = w @ x
            x = np.tanh(h) / (1.0 + float(np.abs(h).max()))
    return acc + float(x.sum())


def now() -> float:
    """``time.perf_counter()`` less the time spent sampling the kernel."""
    while True:
        spent = _spent
        t = time.perf_counter()
        if _spent == spent:
            return t - spent


class Calibrator:
    """Samples the kernel on a timer between ``start`` and ``stop``."""

    def __init__(self, warmup: int = 20):
        self.cost = array("d")
        self._busy = False
        self._previous = None
        for _ in range(warmup):
            kernel()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        global _spent
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.cost.append(took)
        _spent += took
        self._busy = False

    def sample(self, times: int) -> None:
        """Samples the kernel ``times`` times now, outside any timed interval."""
        for _ in range(times):
            self._sample()

    @property
    def spent_s(self) -> float:
        return float(sum(self.cost))

    def host(self, first: int = 0) -> float:
        """Mean cost of the samples from index ``first`` on, over the cost at
        full speed; the whole run's mean when there are none, 1.0 when the
        run has none either."""
        samples = self.cost[first:] or self.cost
        if not samples:
            return 1.0
        return sum(samples) / len(samples) / NOMINAL_S

    def scale(self, share: float, first: int = 0) -> float:
        """Multiplies a time measured since sample ``first`` into a time at
        reference speed."""
        return 1.0 / (1.0 + share * (self.host(first) - 1.0))
