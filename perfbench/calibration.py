"""A fixed reference computation that gauges how fast the machine runs now.

On a shared host the same code can run half again as slow for seconds to
minutes at a time, because other tenants load the cores and caches; the
process's CPU time grows with its wall time, so nothing is visibly
stolen, it just executes slower.  run.py times this computation in the
gap before and after every timed command and scales the command's wall
time by ``REFERENCE_S / gap time``: the command's time at the speed the
machine had when the reference computation took ``REFERENCE_S``.

The computation depends only on Python and numpy, never on skylattice,
so a change to the program cannot move it.  Its mix follows the
program's: interpreter-bound loops with dict stores, many small (16 x 16)
LAPACK calls like the per-column SAR likelihood, and elementwise kernel
weights on medium arrays with a small least-squares solve, like the
local-linear passes of the fcar stage.  It is small enough that OpenBLAS
runs it on one thread.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the time of one gap in the faster phases of the machine the
# benchmark was built on (2 vCPUs, x86_64, Python 3.11.7, numpy 2.4.6);
# it only sets the unit, so scaled times read as seconds there.
REFERENCE_S = 0.11
_ROUNDS = 7
_LOOP = 60_000
_SOLVES = 300
_KERNELS = 60
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((16, 16)) + 8.0 * np.eye(16)
_POINTS = _RNG.standard_normal(120)
_VALUES = _RNG.standard_normal(120)


def gap() -> float:
    """Run the reference computation once; returns its wall time in s."""
    t0 = perf_counter()
    for _ in range(_ROUNDS):
        store, acc = {}, 0.0
        for i in range(_LOOP):
            acc += (i % 13) * 0.5
            store[i & 255] = acc
        for _ in range(_SOLVES):
            np.linalg.slogdet(_MATRIX)
            np.linalg.solve(_MATRIX, _MATRIX[0])
        for _ in range(_KERNELS):
            weights = np.exp(-0.5 * (_POINTS[:, None] - _POINTS[None, :]) ** 2)
            smooth = (weights * _VALUES).sum(axis=1)
            np.linalg.lstsq(weights[:, :3], smooth, rcond=None)
    return perf_counter() - t0
