"""Host speed probe, so that run-to-run changes in machine speed cancel.

On a shared host the same code runs up to half again slower for tens of
seconds at a time, and CPU time slows with wall time, so raw medians of
one deterministic workload, minutes apart, differ by 30% with no change to
the program.  The probe is a fixed kernel owned by the benchmark, mixing
what the engine spends its time on: interpreter loops, small NumPy
operations, strided matrix-vector products, column stacking and a small
matrix product.  It runs after every timed operation, and each time is
scaled by ``NOMINAL_MS`` over the mean of the probes on either side of it,
so it reads in milliseconds on a host where the probe takes
``NOMINAL_MS``.  Offline comparisons on recorded runs favoured these
adjacent probes over one factor per run or over windows of probes.
"""

import statistics
import time

import numpy as np

NOMINAL_MS = 2.0


class Speed:
    def __init__(self):
        rng = np.random.default_rng(20040401)
        self.X = rng.normal(size=(100, 1000))
        self.v = rng.normal(size=64)
        self.G = rng.normal(size=(200, 200))
        for _ in range(3):
            self._probe()
        self.values = [self._probe() for _ in range(5)]

    def _probe(self):
        t0 = time.perf_counter()
        s = 0
        for i in range(8000):
            s += i * i
        v = self.v
        for _ in range(300):
            v = np.abs(v) * 0.5 + v[::-1] * 0.25
        X = self.X
        for j in range(0, 1000, 50):
            X.T @ X[:, j]
        np.column_stack([X[:, j] for j in range(0, 600, 4)])
        self.G @ self.G[:, :20]
        return (time.perf_counter() - t0) * 1e3

    def mark(self):
        """Probe now; return the scale for the time since the last probe."""
        self.values.append(self._probe())
        return NOMINAL_MS / (0.5 * (self.values[-2] + self.values[-1]))

    def factor(self, start):
        """One scale for the probes from ``start`` on."""
        return NOMINAL_MS / statistics.median(self.values[start:])
