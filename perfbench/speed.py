"""Host-speed correction for the benchmark's timings.

The benchmark is tuned on a shared host whose CPUs run the same Python
code up to 1.9x slower for seconds to minutes at a time, one vCPU
independently of the other; process CPU time slows with wall time, so
it is the CPU running slower, not the process waiting.  Raw host
seconds therefore spread more between runs than any bound the
benchmark could set.

The correction: a fixed pure-Python reference burst (dict lookups and
stores, list appends, a sort: the simulator's mix)
runs on the same thread as the measured work, interleaved with it in
time, every :data:`PERIOD_S` seconds.  The mean burst time over a
stretch of work says how fast the CPU ran during it, and a corrected
timing is ``(raw - time spent in bursts) * factor_of(mean, e)``, with
``factor_of(mean, e) = (REF_NOMINAL_S / mean) ** e``: the host seconds
the work would have taken at the reference's nominal speed.  The
elasticity ``e`` is how much the work slows when the reference slows,
in log terms; each workload measures its own.
Over 8-18 s windows of interleaved replay and bursts, raw replay time
varied by 8-13% (coefficient of variation) and the corrected time by
about 2%.

The reference is this file's own code, so a change to the simulator
moves corrected timings exactly as it moves raw ones; only the host's
speed divides out.  Raw timings are printed beside the corrected ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: seconds between two bursts (wall clock)
PERIOD_S = 0.1
#: mean burst time on the host the benchmark was tuned on, at its
#: fastest; it only fixes the scale of corrected timings
REF_NOMINAL_S = 0.0020
#: bursts that correct one set-up sample, run right after the set-up
SETUP_BURSTS = 8
#: elasticity (see :func:`factor_of`) of set-up work, which is process
#: start, imports and compiling: between two sets of ten runs whose
#: bursts slowed 1.4x, raw set-up time rose 1.19x on the sweep and 1.30x
#: on serve (0.5 and 0.8)
SETUP_ELASTICITY = 0.65
_ITERATIONS = 12000


def _reference_work() -> int:
    """Fixed work shaped like the simulator's hot loops.

    It creates no objects the cyclic garbage collector tracks beyond
    one dict and one list, and runs with the collector off, so its time
    does not depend on the size of the heap of the process it runs in.
    """
    table: dict[int, int] = {}
    freed: list[int] = []
    for i in range(_ITERATIONS):
        lpn = (i * 2654435761) % 509
        old = table.get(lpn)
        if old is not None:
            freed.append(old)
        table[lpn] = i
    freed.sort(reverse=True)
    return len(freed) + sum(table.values())


def burst() -> float:
    """Run the reference work once; its host seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor_of(mean_burst_s: float, elasticity: float) -> float:
    """Multiplier from raw to corrected seconds for work that slows
    ``elasticity`` times as much as the reference (in log terms), done
    while the reference bursts took ``mean_burst_s`` on average."""
    return (REF_NOMINAL_S / mean_burst_s) ** elasticity


class Sampler:
    """Reference bursts interleaved with the measured work.

    :meth:`start` makes SIGALRM run a burst every :data:`PERIOD_S`
    seconds in the main thread, between bytecodes of whatever it is
    doing; :meth:`maybe_sample` runs one explicitly when a period has
    passed (for a thread that waits on another process, which must
    idle meanwhile).  ``spent`` is the host time taken by bursts, to
    subtract from raw timings that enclose them.
    """

    def __init__(self, elasticity: float):
        self.elasticity = elasticity
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()
        self._previous_handler = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(burst())
        self._last = time.perf_counter()
        self.spent += self._last - t0

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def start(self) -> None:
        self._previous_handler = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def factor(self, since: int = 0) -> float | None:
        """Multiplier from raw (net of bursts) to corrected seconds, from
        the bursts taken since ``len(samples)`` was ``since``; None when
        there were none."""
        taken = self.samples[since:]
        if not taken:
            return None
        return factor_of(statistics.fmean(taken), self.elasticity)
