"""Wall times scaled to a reference machine speed.

On a shared host the CPU speed left to one process drifts by up to 1.5x
within a minute.  Process CPU time drifts with wall time, so the loss is not
steal time that CPU time would exclude.  On a shared 2-vCPU x86-64 VM the
spread of raw wall times between runs of one workload was 0.12 to 0.33 of
their median.

``SpeedClock`` times a fixed kernel just before and just after each timed
interval, on the same CPU.  The kernel does the kinds of work vemhr does
(small HiGHS LPs, a sparse LU, small-array numpy in a Python loop, dict and
sort work) but runs none of vemhr's code, so a change to vemhr moves scaled
times exactly as it moves wall times.  An interval's scaled time is its wall
time divided by the kernel's slowdown, the kernel's median time over
``KERNEL_REFERENCE_S``.

The kernel and ``KERNEL_REFERENCE_S`` are part of the benchmark's
definition: changing either makes scaled times incomparable with earlier
ones.
"""

import statistics
import time

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

# Median kernel time on a 2-vCPU x86-64 VM (Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1) in its faster periods; only ratios to it matter.
KERNEL_REFERENCE_S = 0.025
# Kernel runs before and after each interval; their median is the speed.
KERNEL_RUNS = 5


class SpeedClock:
    """Scales the wall time of consecutive intervals to reference speed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        # min c.x subject to A x >= 1, x >= 0: feasible and bounded.
        self._lp = (rng.random(12), -rng.random((40, 12)) - 0.1,
                    -np.ones(40))
        line = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(40, 40))
        eye = sparse.eye(40)
        self._laplacian = (sparse.kron(eye, line)
                           + sparse.kron(line, eye)).tocsc()
        self._polygon = rng.random((8, 2))
        self.kernel_s = []   # every kernel run, in groups of KERNEL_RUNS
        self._last = self._runs()

    def _kernel(self):
        t0 = time.perf_counter()
        for _ in range(3):
            linprog(self._lp[0], A_ub=self._lp[1], b_ub=self._lp[2],
                    method="highs")
        splu(self._laplacian, permc_spec="COLAMD")
        for i in range(300):
            p = np.roll(self._polygon, i % 8, axis=0)
            float(np.cross(p[1:] - p[:-1], p[:-1]).sum())
        table = {}
        for i in range(20000):
            table[(i * 7919) % 10007] = i
        sorted(table.items())
        return time.perf_counter() - t0

    def _runs(self):
        runs = [self._kernel() for _ in range(KERNEL_RUNS)]
        self.kernel_s.append(runs)
        return runs

    def scale(self, wall_s):
        """``wall_s``, the interval that ended just now, at reference
        speed."""
        before, self._last = self._last, self._runs()
        slowdown = statistics.median(before + self._last) / KERNEL_REFERENCE_S
        return wall_s / slowdown
