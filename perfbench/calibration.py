"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares its machine with other tenants. Their load changes the
speed of every instruction the benchmark runs, for seconds to minutes at a
time. On a 2-vCPU Xeon test host, over three minutes, the median time of
one fixed ngs solve (``gaussian_well_deep`` at a = 2, about 0.3 s) moved by
24 % from one 20-sample window to the next (interquartile range over
median), while its ratio to this kernel, timed alternately, moved by 3.4 %.

The kernel does what a flow step does - a SuperLU solve of a tridiagonal
system with n = 2000, elementwise NumPy arithmetic and a dot product - but
it is the benchmark's own code and imports nothing from ngs, so no change
to the program can change its time. Timings are reported as
``raw * REFERENCE_S / kernel``: seconds at the speed at which the kernel
takes ``REFERENCE_S``.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# kernel time on an uncontended Intel Xeon vCPU at 2.0 GHz (OpenBLAS, one thread)
REFERENCE_S = 0.012
STEPS = 200
REPEATS = 3


class Kernel:
    def __init__(self, n: int = 2000):
        main = np.full(n, 2.5)
        off = np.full(n - 1, -1.0)
        self._lu = spla.splu(sp.diags([off, main, off], [-1, 0, 1], format="csc"))
        self._x0 = np.linspace(0.0, 1.0, n)
        self.run()

    def run(self) -> float:
        x = self._x0
        total = 0.0
        for _ in range(STEPS):
            y = self._lu.solve(x)
            x = self._x0 + 0.1 * y / (1.0 + y * y)
            total += float(x @ y)
        return total

    def scale(self, before: float, after: float) -> float:
        """Factor from raw seconds to reference seconds, given kernels around them."""
        return REFERENCE_S / (0.5 * (before + after))

    def seconds(self) -> float:
        """Median time of a few kernel runs."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self.run()
            times.append(perf_counter() - t0)
        return statistics.median(times)
