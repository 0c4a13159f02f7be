"""The Epanechnikov kernel and the window sweep over observations, kept as
oracles for the running-moments smoother in ``skylattice.core``.

``kernel_values`` evaluates the kernel pointwise and ``_kernel_windows``
gathers, per evaluation point, the observations within its support; the
dense and windowed reference fits in the tests are built from them.
"""

import numpy as np


def kernel_values(z: np.ndarray) -> np.ndarray:
    """Epanechnikov kernel K(z) at standardized offsets z; 0 wherever |z| > 1."""
    return np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0)


def _kernel_windows(u_obs: np.ndarray, u_eval: np.ndarray, h: float):
    """Blocks of evaluation points with the observations their kernel weights.

    Yields ``(sl, idx, diff, k)`` for consecutive blocks ``sl`` of at most 256
    evaluation points.  ``idx`` is a (rows x W) matrix of indices into
    ``u_obs``: each row holds W distinct observations that are consecutive in
    u order and include every observation within the kernel's support of that
    row's evaluation point, W being the widest such window in the block.
    ``diff = u_obs[idx] - u_eval[sl, None]`` and ``k = K_h(diff)``; entries a
    row holds beyond its evaluation point's support carry k == 0 and
    |diff| > h.
    """
    order = np.argsort(u_obs, kind="stable")
    u_sorted = u_obs[order]
    n = u_sorted.size
    # the kernel vanishes beyond |diff| = h; widen the search so rounding in
    # the |diff| <= h and |diff/h| <= 1 tests can never accept an
    # observation the window left out
    pad = 1e-9 * (h + np.abs(u_eval))
    lo = np.searchsorted(u_sorted, u_eval - h - pad, side="left")
    hi = np.searchsorted(u_sorted, u_eval + h + pad, side="right")
    for first in range(0, u_eval.size, 256):
        sl = slice(first, min(first + 256, u_eval.size))
        width = int((hi[sl] - lo[sl]).max())
        # shift windows that would run past the end back inside, so every
        # index in a row stays distinct
        start = np.minimum(lo[sl], n - width)
        idx = order[start[:, None] + np.arange(width)]
        diff = u_obs[idx] - u_eval[sl, None]
        yield sl, idx, diff, kernel_values(diff / h) / h
