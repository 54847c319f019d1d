"""Wall times scaled to a fixed host speed.

The benchmark runs on a shared host whose speed drifts by up to 1.8x over
minutes and differs between its two CPUs: the same `select` call took
1.2 s in one quiet stretch and 2.3 s in a busy one, with CPU time equal to
wall time (slower execution, not descheduling).  A comparison of two sets
of runs made minutes apart would then read the host, not the program.

So every timed call is bracketed by a reference computation: a fixed piece
of the benchmark's own code, of the kind of work the program does, which no
change to the program touches.  The call's wall time is scaled by
`REFERENCE_S` over the mean time of the two references around it.
`REFERENCE_S` is the reference's time on a fast stretch of the host, so a
scaled time reads as the wall time there.  A change to the program moves
its scaled times in full; a change of host speed moves the call and the
reference together and cancels.  `run.py` pins itself and its children to
one CPU, so the reference runs where the timed call, or the CLI child it
waits for, runs.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

# Reference passes per matrix size, chosen so that a reference takes a tenth
# to a fifth of the call it brackets (a `select` call or a CLI process at
# n = 22, an `em.fit` call at n = 80), and the reference time of each on a
# fast stretch of one CPU of the host described in README.md.
PASSES = {22: 800, 80: 300}
REFERENCE_S = {22: 0.12, 80: 0.32}


@lru_cache(maxsize=None)
def _laplacian(n: int) -> np.ndarray:
    """A well-conditioned weighted Laplacian plus the identity."""
    w = np.random.default_rng(n).uniform(0.5, 2.0, (n, n))
    w = w + w.T
    np.fill_diagonal(w, 0.0)
    return np.diag(w.sum(axis=1)) - w + np.eye(n)


def reference_s(n: int) -> float:
    """Wall time of the fixed reference computation at matrix size `n`.

    Matrix-Tree-like work: Gaussian elimination of an n x n Laplacian in a
    Python loop, then an inversion and elementwise functions.  At n = 22
    Python overhead dominates it, as it does the program's kernel; at
    n = 80 arithmetic does.
    """
    lap = _laplacian(n)
    t0 = time.perf_counter()
    for _ in range(PASSES[n]):
        a = lap.copy()
        for k in range(n - 1):
            a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k, k + 1:])
        np.exp(-np.abs(np.linalg.inv(a))).sum(axis=0)
    return time.perf_counter() - t0


class Clock:
    """Times calls, each scaled by the references taken just before and after.

    Consecutive calls share a reference: the one after a call is the one
    before the next.
    """

    def __init__(self, n: int):
        self.n = n
        self._last = None

    def time(self, func, *args, **kwargs):
        """Call `func`; return (its result, its wall time scaled to REFERENCE_S)."""
        before = reference_s(self.n) if self._last is None else self._last
        t0 = time.perf_counter()
        out = func(*args, **kwargs)
        wall = time.perf_counter() - t0
        self._last = after = reference_s(self.n)
        return out, wall * REFERENCE_S[self.n] / (0.5 * (before + after))
