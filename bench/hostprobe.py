"""Host-speed probe that keeps sampling while the program runs.

The host's speed changes by up to 2x within seconds (other tenants share its
cores), and the program's time changes with it.  A probe taken only between
commands misses what happens during a multi-second sweep, so a timer signal
runs a small fixed numpy kernel every PROBE_INTERVAL_S on the benchmark's own
thread, in between the program's bytecodes.  The kernel's time around a
command tells how fast the host was while it ran; the kernel's own time is
taken out of the command's time.

The kernel pairs a batched SVD, which follows the slowdowns of bp solves,
coherence reports and spark scans best, with a loop of small least-squares
fits, which follows p0 best.  Over five 20 s runs of sweep-exact the spread
of ops_per_s was 12% raw, 5% against the SVD batch alone and 4% against the
pair; on sweep-relax 4%, 5% and 2%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

PROBE_INTERVAL_S = 0.25
# Samples this far outside a window still describe it; short commands would
# otherwise see none.
WINDOW_PAD_S = 0.5


class HostProbe:
    """Samples the kernel's time on SIGALRM between ``start`` and ``stop``."""

    def __init__(self, np):
        rng = np.random.default_rng(20120521)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._np = np
        self._batch = cn(128, 8, 8)
        self._tall = [cn(12, k) for k in (2, 3, 4, 5, 6)] * 6
        self._y = cn(12)
        self.at = array("d")     # sample start, perf_counter seconds
        self.took = array("d")   # kernel seconds
        self.kernel()

    def kernel(self) -> None:
        """A batch of 128 complex 8x8 SVDs, then 30 small least-squares fits."""
        linalg = self._np.linalg
        linalg.svd(self._batch, compute_uv=False)
        y = self._y
        for m in self._tall:
            linalg.norm(y - m @ (linalg.pinv(m) @ y))

    def timed_ms(self) -> float:
        """Median milliseconds of three kernel runs, timed now."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self.kernel()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, lo: float, hi: float) -> range:
        return range(bisect.bisect_left(self.at, lo), bisect.bisect_right(self.at, hi))

    def kernel_ms(self, lo: float, hi: float, outside_only: bool = False) -> float:
        """Median kernel milliseconds of the samples around [lo, hi].

        With ``outside_only`` the samples taken within [lo, hi] are left out.
        """
        idx = self._span(lo - WINDOW_PAD_S, hi + WINDOW_PAD_S)
        if outside_only:
            inner = self._span(lo, hi)
            idx = [i for i in idx if i not in inner]
        if not idx:
            raise RuntimeError("no host-speed sample near the window")
        return statistics.median(self.took[i] for i in idx) * 1e3

    def inside(self, lo: float, hi: float) -> float:
        """Seconds the probe itself ran within [lo, hi]."""
        return sum(self.took[i] for i in self._span(lo, hi))
