"""The machine's speed while the tasks run, measured in the benchmark's own thread.

On a shared host the same work runs up to twice as fast or as slow from one
few seconds to the next, in wall and in CPU time alike. `Speed` times two
short probe kernels ten times a second from a SIGALRM handler, so that they
run in the timed thread between the library's own bytecodes, on the same
core and in the same moments as the task:

- ``lapack``: eigh of a real symmetric 32 x 32 matrix, three times;
- ``python``: a loop of plain bytecode.

A task's *slowness* is the mean, over the two kernels, of the kernel's
median time within `WINDOW_S` of the task over its nominal time; dividing
the task's time by it states the time at the nominal speed. The kernels do
not call cpmasa, so a change to the library moves the scaled times in full.
The handler's own time is taken out of the task's time.

A third kernel, one pass over a 16 MB array, was tried for the work on
d^2 x d^2 superoperators; scoring the same runs with and without it, it
widened the corpus and search spreads by up to 2.5 times and narrowed no
workload's by more than a few thousandths.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_EVERY_S = 0.1
# probes this close to a task's interval set its slowness
WINDOW_S = 0.5
# fewest probes of a kernel to take a median of; the nearest ones in time
# stand in when a long numpy call kept the handler from running
MIN_PROBES = 3
# median time of each kernel, run from the handler, on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, one OpenBLAS thread); times are stated at this speed
NOMINAL_S = {"lapack": 0.00054, "python": 0.00027}


class Speed:
    """Probe samples of the timed phase, and each interval's slowness from them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((32, 32))
        self._sym = h + h.T
        self._kernels = {"lapack": self._lapack, "python": self._python}
        self.samples: list[tuple[float, str, float]] = []  # (start, kernel, seconds)
        self.probe_s = 0.0
        self._probing = False
        for kernel in self._kernels.values():
            kernel()  # warm-up, untimed

    def _lapack(self):
        for _ in range(3):
            np.linalg.eigh(self._sym)

    @staticmethod
    def _python():
        total = 0
        for i in range(4000):
            total += i * i
        return total

    def probe(self, *_):
        """Time each kernel once; the signature lets it serve as a signal handler.

        A signal that lands while a probe runs is dropped, so that no probe
        time is counted twice.
        """
        if self._probing:
            return
        self._probing = True
        started = time.perf_counter()
        for name, kernel in self._kernels.items():
            t = time.perf_counter()
            kernel()
            self.samples.append((t, name, time.perf_counter() - t))
        self.probe_s += time.perf_counter() - started
        self._probing = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowness(self, start: float, end: float) -> float:
        """Mean over the kernels of their median time around [start, end] over their nominal time."""
        ratios = []
        for name, nominal in NOMINAL_S.items():
            mine = [(t, s) for t, k, s in self.samples if k == name]
            near = [s for t, s in mine if start - WINDOW_S <= t <= end + WINDOW_S]
            if len(near) < MIN_PROBES:
                mine.sort(key=lambda ts: min(abs(ts[0] - start), abs(ts[0] - end)))
                near = [s for _, s in mine[:MIN_PROBES]]
            ratios.append(statistics.median(near) / nominal)
        return sum(ratios) / len(ratios)
