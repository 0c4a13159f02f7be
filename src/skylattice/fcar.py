"""Functional-coefficient autoregression fitted by spline-backfitted kernels.

The model lets each autoregressive coefficient vary smoothly with a delayed
value of the series itself:

    X_t = m_0(u_t) + sum_j m_j(u_t) * X_{t-j} + noise,   u_t = X_{t-d}.

Estimation is a single backfitting pass in three steps: an under-smoothed
linear B-spline least-squares pre-estimate of each coefficient curve fitted
marginally (one component at a time), pseudo-responses that strip all but
one estimated component from X_t, and a local-linear kernel refinement of
each curve against its pseudo-responses.  The kernel is Epanechnikov, and
each curve is refined on a ``GRID_SIZE``-point grid spanning the observed
u; points with fewer than ``MIN_LOCAL_OBS`` observations within one
bandwidth are flagged unreliable, and fitted values on such rows fall back
to the spline pre-estimate.  The refined curves carry
approximate 95% pointwise bands combining the local-linear sandwich
variance with the sampling variance the pre-estimates carry into the
pseudo-responses.

A fit is a design, then a solve.  The design (``_fit_design``) holds
everything the response cannot change: the regression rows
(``_fit_rows``: the row times, u_t and one design column per component,
X_{t-j} or ones for m_0), the basis at the rows (``_TentRows``: each row's
knot interval and its fraction of it), each spline block factored through
its knot intervals (``_SplineBlock``: per interval a two-column QR, then
the SVD of the stacked 2 x 2 triangles through their bidiagonal, O(T)
work and no T-row factor),
the bandwidth, and the running-moments smoother (``core._moment_smoother``)
evaluated at the observed u, which sorts the rows by u, cuts each window at
bins of one bandwidth and folds the local Gram sums of every component into
the weights of a response's moments, with the reliability flags and the
smoother traces, in O(T log T).  The solve (``_solve``) fits a block of
R responses on a design, each as it would be fitted alone: the spline
coefficients with their per-response cutoff escalation, the
pseudo-responses, their local levels at the observed u from one pass of
prefix sums (O(T) per response), and the fitted values.  ``_solve_fit``
is its one-response form, which adds the band of each pre-estimate's
covariance and returns the fit.  The fit keeps those O(T + N) values and
no part of the design, and its curves are built when read
(``FcarFit.curves``, ``sbk_estimate``): the noise variance, then the same
smoother evaluated on the grid for its levels, flags, sandwich variances
and band multipliers.  So a rule about which rows a fit uses lives in one
place, a series fitted against several responses (the lattice model's
backfit and final stage, cross-validation's neighbor sets, solved in one
block) builds its design once, a grid is built only for a fit whose
curves are read, and every kernel sum of the package comes from one
smoother.  A design holds
O(T) values (the interval factors and the smoother's segment bounds and
weights) plus the small SVD of each block's stacked triangles.

An intercept curve m_0 next to the lag-d term would be only weakly
separated from it (m_0(u) and m_d(u)*u are both functions of u alone), so
m_0 comes only in the rewritten form :meth:`FcarSpec.delay_absorbed`,
which folds the lag-d term into m_0.  That is the right form for series
like the exponential autoregression in :mod:`skylattice.simulation`, whose
lag-d contribution is a pure function of u.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import _frozen_array, _MomentSmoother, _moment_smoother

# relative singular-value cutoffs of the spline pre-estimate, tried in turn
# while the solution stays numerically unidentified; the last one is kept
_SPLINE_CUTOFFS = (1e-8, 1e-6, 1e-4, 1e-2)

# grid/observation points backed by fewer in-bandwidth samples than this are
# flagged unreliable; fitted values on such rows fall back to the spline
# pre-estimate
MIN_LOCAL_OBS = 5
# points on each coefficient curve's refinement grid
GRID_SIZE = 101


@dataclass(frozen=True)
class FcarSpec:
    """Model order for a functional-coefficient autoregression.

    ``p`` is the autoregressive order and ``d`` the delay of the functional
    variable u_t = X_{t-d} (1 <= d <= p).  The plain form fits the lag terms
    1..p; with ``absorb_delay`` set, the intercept curve m_0 is fitted and
    the lag-d term is dropped (see :meth:`delay_absorbed`).
    """

    p: int
    d: int
    absorb_delay: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not (1 <= self.d <= self.p):
            raise ValueError("d must satisfy 1 <= d <= p")

    @classmethod
    def delay_absorbed(cls, p: int, d: int) -> "FcarSpec":
        """Rewritten form with m_0 present and the lag-d regressor dropped.

        Because u_t = X_{t-d}, the term m_d(u_t) X_{t-d} = m_d(u) u is a
        function of u alone and is absorbed into the intercept curve.
        """
        return cls(p=p, d=d, absorb_delay=True)

    @property
    def components(self) -> tuple[int, ...]:
        """Component indices in fit order; 0 denotes the intercept curve."""
        if self.absorb_delay:
            return (0,) + tuple(j for j in range(1, self.p + 1) if j != self.d)
        return tuple(range(1, self.p + 1))

    @property
    def max_lag(self) -> int:
        return self.p


@dataclass(frozen=True)
class SplineBasis:
    """Linear B-spline (tent) basis on N+2 equally spaced knots over [0,1]."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")

    @property
    def knots(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.N + 2)

    @property
    def n_funcs(self) -> int:
        return self.N + 2


def default_knot_count(T: int) -> int:
    """Interior-knot count round(T^{2/5} ln T), clamped to [1, T/4]."""
    if T < 10:
        raise ValueError("need T >= 10 to choose a knot count")
    n = int(np.round(T**0.4 * math.log(T)))
    return max(1, min(n, T // 4))


@dataclass(frozen=True)
class _TentRows:
    """The tent basis at points u in [0, 1], by knot interval.

    Row i is 1 - ``f[i]`` in column ``k[i]``, ``f[i]`` in column
    ``k[i] + 1`` and 0 elsewhere: ``k`` is the knot interval holding u
    (0..N) and ``f`` the fraction of it to the left of u, so a u on a knot
    has f = 0, except u = 1, which closes interval N with f = 1.
    ``rows @ coef`` evaluates the spline with knot values ``coef``.
    """

    k: np.ndarray
    f: np.ndarray

    def __matmul__(self, coef: np.ndarray) -> np.ndarray:
        return (1.0 - self.f) * coef[self.k] + self.f * coef[self.k + 1]

    def quadratic(self, band: np.ndarray) -> np.ndarray:
        """b(u)' G b(u) at every point, b(u) the point's row and G symmetric
        with diagonal ``band[0]`` and superdiagonal ``band[1, :-1]``: a row
        has two adjacent nonzeros, so no other entry of G enters."""
        k, f = self.k, self.f
        g = 1.0 - f
        return g * g * band[0, k] + 2.0 * f * g * band[1, k] + f * f * band[0, k + 1]


def _kept(x, dtype=float) -> np.ndarray:
    """``x`` itself when it is a read-only C-ordered array of ``dtype`` that
    owns its values, as a design's rows and a solve's results are, else a
    frozen copy (``core._frozen_array``)."""
    if isinstance(x, np.ndarray) and not x.flags.writeable:
        if x.flags.owndata and x.flags.c_contiguous and x.dtype == dtype:
            return x
    return _frozen_array(x, dtype)


def _tent_rows(basis: SplineBasis, u) -> _TentRows:
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("u must lie in [0, 1]")
    knots = basis.knots
    k = np.minimum(np.searchsorted(knots, u_arr, side="right") - 1, basis.N)
    return _TentRows(k, (u_arr - knots[k]) / (knots[k + 1] - knots[k]))


def basis_eval(basis: SplineBasis, u) -> np.ndarray:
    """Evaluate all tent functions at u in [0,1].

    Returns an (N+2,) vector for scalar u or an (n, N+2) matrix for an array.
    At most two entries per row are nonzero and each row sums to 1; at a
    knot the row is that knot's unit vector.
    """
    rows = _tent_rows(basis, u)
    k, f = rows.k.ravel(), rows.f.ravel()
    out = np.zeros((k.size, basis.n_funcs))
    i = np.arange(k.size)
    out[i, k] = 1.0 - f
    out[i, k + 1] = f
    return out.reshape(rows.k.shape + (basis.n_funcs,))


@dataclass(frozen=True)
class UTransform:
    """Min-max affine map between the data scale of u and [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.hi > self.lo):
            raise ValueError("degenerate u range: hi must exceed lo")

    def to_unit(self, u):
        return (np.asarray(u, dtype=float) - self.lo) / (self.hi - self.lo)


@dataclass(frozen=True)
class _FitRows:
    """The regression rows of one fit: ``t`` the row times, ``u`` the
    functional variable X_{t-d} (data scale) and ``umap`` its map to [0, 1],
    and ``cols`` one design column per ``spec.components`` entry (X_{t-j},
    or ones for the intercept curve), one row each.  ``u`` and ``cols`` are
    read-only, so every fit on the rows keeps them uncopied.  The response
    is not part of them.
    """

    t: np.ndarray
    u: np.ndarray
    umap: UTransform
    cols: np.ndarray


def _fit_rows(x: np.ndarray, spec: FcarSpec, t_start: Optional[int]) -> _FitRows:
    """Rows t_start .. T-1 (none before ``spec.max_lag``), built once per design.

    u and the design columns come from ``x``; every stage of a fit reads
    these rows, and the response is read at ``t``.  Every check of the
    series itself runs here: 1-D, finite, at least two rows, and u not
    constant.
    """
    if x.ndim != 1:
        raise ValueError("x must be a 1-D series")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    T = x.size
    start = spec.max_lag if t_start is None else max(t_start, spec.max_lag)
    if T - start < 2:
        raise ValueError("series too short for this specification")
    t = np.arange(start, T)
    u = _frozen_array(x[t - spec.d])
    lo, hi = float(u.min()), float(u.max())
    if not hi > lo:
        raise ValueError("functional variable is constant; cannot rescale to [0,1]")
    cols = _frozen_array([np.ones(t.size) if j == 0 else x[t - j] for j in spec.components])
    return _FitRows(t, u, UTransform(lo, hi), cols)


@dataclass(frozen=True)
class _SplineBlock:
    """One component's spline block D = B * X_{t-j}, factored by knot interval.

    Row i of D is nonzero only in columns k_i and k_i + 1 (``_TentRows``),
    so the rows of interval k form a two-column matrix, and its thin QR
    factor ``[q0 q1]`` (the rows' two coefficients, in columns 2k and 2k+1
    of Q~) and 2 x 2 triangle stack to D = Q~ R~, with R~ of shape
    2(N+1) x (N+2).  ``U * sing @ Vt`` is the thin SVD of R~, taken on
    the bidiagonal that two Givens rotations per column reduce R~ to
    (:func:`_stack_svd`), so ``sing`` (descending) and ``Vt`` are D's and
    D's left factor is Q~ U.  ``r_scale`` is the
    95th percentile of |X_{t-j}| (1 for the intercept curve), which scales
    the coefficient cap.
    """

    k: np.ndarray
    q0: np.ndarray
    q1: np.ndarray
    U: np.ndarray
    sing: np.ndarray
    Vt: np.ndarray
    r_scale: float

    def qt(self, ys: np.ndarray) -> np.ndarray:
        """Q~' y of each response row of ``ys`` (R x n): per interval, the
        sums of q0 * y and q1 * y, interleaved, one row per response.  Each
        sum is one ``bincount`` over every row, keyed by interval plus m
        times the row, and a bin adds its terms in row order, so a row's
        sums are the ones it would get alone."""
        R = ys.shape[0]
        m = self.U.shape[0] // 2
        keys = (self.k + m * np.arange(R)[:, None]).ravel()
        out = np.empty((R, 2 * m))
        out[:, 0::2] = np.bincount(keys, (self.q0 * ys).ravel(), minlength=R * m).reshape(R, m)
        out[:, 1::2] = np.bincount(keys, (self.q1 * ys).ravel(), minlength=R * m).reshape(R, m)
        return out


@dataclass(frozen=True)
class _SplinePrefit:
    """Marginal spline pre-fits: coefficients plus variance bookkeeping.

    ``coeffs`` is (N+2) x n_components; per component, ``parts`` holds the
    term m~_j(u_t) X_{t-j} at each fit row and ``sigma2s``/``bands`` the
    marginal fit's residual variance and the band of its truncated inverse
    Gram matrix (see :func:`_prefit_summary`), which give the pre-estimate's
    pointwise sampling variance that the kernel stage folds into its bands.
    """

    coeffs: np.ndarray
    parts: tuple[np.ndarray, ...]
    sigma2s: tuple[float, ...]
    bands: tuple[np.ndarray, ...]
    deficient: bool


def _spline_block(
    tent: _TentRows, reg: np.ndarray, n_funcs: int, r_scale: float
) -> _SplineBlock:
    """Factor the block D = B * ``reg`` through its knot intervals.

    Per interval, classical Gram-Schmidt on the rows' two columns with one
    re-orthogonalization pass, in segment sums over the rows; then the thin
    SVD of the stacked triangles on their bidiagonal (:func:`_stack_svd`).
    An interval without rows, or whose columns vanish or are exactly
    parallel, leaves a zero row in R~ and a zero column in Q~.
    """
    k, m = tent.k, n_funcs - 1

    def interval_sums(v):
        return np.bincount(k, v, minlength=m)

    def normalize(v):
        norm = np.sqrt(interval_sums(v * v))
        return v / np.where(norm > 0.0, norm, 1.0)[k], norm

    a1 = tent.f * reg
    q0, r00 = normalize((1.0 - tent.f) * reg)
    r01 = interval_sums(q0 * a1)
    v = a1 - r01[k] * q0
    again = interval_sums(q0 * v)
    v -= again[k] * q0
    q1, r11 = normalize(v)
    U, sing, Vt = _stack_svd(r00, r01 + again, r11)
    if sing[0] <= 0.0:
        raise ValueError("degenerate spline design (all-zero block)")
    return _SplineBlock(k, q0, q1, U, sing, Vt, r_scale)


@functools.cache
def _lapack(name: str, n_args: int):
    """The LAPACK routine ``name`` of the LAPACK that scipy.linalg links,
    taken from ``scipy.linalg.cython_lapack`` (which exports the bidiagonal
    and banded routines that ``scipy.linalg.lapack`` does not) and called
    through ctypes with ``n_args`` pointer arguments.  Not numpy's LAPACK:
    numpy links another build, whose results differ in the last bits.
    Loaded on first use: scipy.linalg loads slower than the rest of the
    package, and simulate, detrend and SAR fits never get here."""
    import ctypes

    from scipy.linalg import cython_lapack

    capsule = cython_lapack.__pyx_capi__[name]
    capi = ctypes.pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", capi)
    )
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", capi)
    )(capsule, capsule_name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(address)


def _stack_svd(r00: np.ndarray, r01: np.ndarray, r11: np.ndarray):
    """Thin SVD ``U, sing, Vt`` of a block's stacked triangles R~.

    R~ is 2m x (m+1): row 2j holds ``r00[j]`` in column j and ``r01[j]`` in
    column j+1, and row 2j+1 holds ``r11[j]`` in column j+1.  Two Givens
    rotations per column reduce it to an (m+1)-square upper bidiagonal B.
    At column j, a pending row whose one entry pi_j sits in column j
    (pi_0 = 0) meets row 2j.  The rotation (c_j, s_j) = (r00[j], pi_j) /
    rho_j, with rho_j = hypot(pi_j, r00[j]), gives B's row j, (rho_j,
    c_j r01[j]), and a complement whose one entry, -s_j r01[j], sits in
    column j+1.  The rotation (alpha_j, beta_j) = (-s_j r01[j], r11[j]) /
    pi_{j+1} merges that complement with row 2j+1 into the next pending
    row, pi_{j+1} = hypot(s_j r01[j], r11[j]), and a zero row.  The last
    pending row is B's last row, and a rotation with nothing to rotate is
    the identity.  Each pending value depends on the one before, so one
    scalar loop runs the chain and records every rotation.

    LAPACK's ``dbdsdc('U', 'I')`` gives B = U_B S V'; S (descending, as
    :func:`_truncated_solve` needs) and V' are R~'s.  R~'s left factor follows
    from the rotations.  In B's rows, row 2j of R~ is c_j B_j - s_j alpha_j
    P_{j+1} and row 2j+1 is beta_j P_{j+1}, where the pending rows unwind
    as P_k = s_k B_k + gamma_k P_{k+1}, gamma_k = c_k alpha_k and P_m =
    B_m.  So the rows P_k U_B solve one unit upper bidiagonal system with
    m+1 right-hand sides, which LAPACK's ``dtbtrs`` solves in O(m^2).
    """
    m = r00.size
    n = m + 1
    nn = n * n
    rotations = []
    p = 0.0
    for a, b, t in zip(r00.tolist(), r01.tolist(), r11.tolist()):
        r = math.hypot(p, a)
        if r:
            c, s = a / r, p / r
        else:
            c, s = 1.0, 0.0
        sb = s * b
        p = math.hypot(sb, t)
        if p:
            rotations.extend((r, c, s, sb / p, t / p))
        else:
            rotations.extend((r, c, s, -1.0, 0.0))
    # the last pending row is B's last row, and P_m = B_m
    rotations.extend((p, 1.0, 1.0, -1.0, 0.0))
    # One float workspace, by offset: per column rho, c, s, -alpha and
    # beta | d | e | L's band | dbdsdc's work (3n^2 + 4n) | U_B' | V, where
    # Fortran's column-major U_B and V' read as U_B' and V.  One int32
    # workspace: n | dbdsdc's info | 1 | 2 | dtbtrs's info | dbdsdc's 8n.
    D, E, L, W = 5 * n, 6 * n, 7 * n, 9 * n
    UB = W + 3 * nn + 4 * n
    work = np.empty(UB + 2 * nn)
    iwork = np.empty(8 * n + 5, dtype=np.int32)
    work[:D] = rotations
    rho, c, s, neg_alpha, beta = work[:D].reshape(n, 5).T
    c, neg_alpha, beta = c[:m], neg_alpha[:m], beta[:m]
    work[D:E] = rho
    np.multiply(c, r01, out=work[E : E + m])
    iwork[:5] = (n, 0, 1, 2, 0)
    fa, ia = work.ctypes.data, iwork.ctypes.data
    _lapack("dbdsdc", 14)(
        b"U", b"I", ia, fa + 8 * D, fa + 8 * E, fa + 8 * UB, ia, fa + 8 * (UB + nn), ia,
        None, None, fa + 8 * W, ia + 20, ia + 4,
    )
    sing = work[D:E].copy()
    UBt, V = work[UB:].reshape(2, n, n)
    Vt = np.ascontiguousarray(V.T)
    U = np.empty((2 * m, n))
    np.multiply(UBt[:, :m].T, c[:, None], out=U[0::2])
    # the rows P_k U_B solve L P = diag(s) U_B (s_m = 1), with L unit upper
    # bidiagonal and -gamma above its diagonal, in place of U_B; in LAPACK's
    # band storage, L's column k holds -gamma_{k-1} first
    np.multiply(c, neg_alpha, out=work[L + 2 : W : 2])
    UBt *= s
    _lapack("dtbtrs", 11)(
        b"U", b"N", b"U", ia, ia + 8, ia, fa + 8 * L, ia + 12, fa + 8 * UB, ia, ia + 16
    )
    if iwork[1] or iwork[4]:
        raise ValueError(
            f"LAPACK failed on a spline block (dbdsdc info {iwork[1]}, dtbtrs info {iwork[4]})"
        )
    P = UBt[:, 1:].T
    U[0::2] += (s[:m] * neg_alpha)[:, None] * P
    np.multiply(beta[:, None], P, out=U[1::2])
    return U, sing, Vt


def _gram_band(sing: np.ndarray, Vt: np.ndarray) -> np.ndarray:
    """The band of the inverse Gram matrix G = V S^-2 V' of the kept
    singular values ``sing`` and right singular vectors ``Vt``:
    ``band[0]`` is G's diagonal and ``band[1, :-1]`` its superdiagonal,
    all that b(u)' G b(u) reads of it (:meth:`_TentRows.quadratic`), in
    O(rank N) and without forming G."""
    w = Vt / sing[:, None]
    band = np.zeros((2, Vt.shape[1]))
    np.add.reduce(w * w, axis=0, out=band[0])
    np.add.reduce(w[:, :-1] * w[:, 1:], axis=0, out=band[1, :-1])
    return band


def _abs_p95(v: np.ndarray) -> float:
    """``np.percentile(np.abs(v), 95)``, bit for bit, from one partition.

    The same linear interpolation between the order statistics around
    index 0.95 (n - 1), in the same operations, without the sort or the
    generic quantile machinery, whose call overhead dominates at the sizes
    a spline block has.
    """
    a = np.abs(v)
    index = (a.size - 1) * 0.95
    lo = math.floor(index)
    if lo >= a.size - 1:
        return float(a.max())
    below, above = np.partition(a, (lo, lo + 1))[lo : lo + 2]
    gamma = index - lo
    diff = above - below
    if gamma >= 0.5:
        return float(above - diff * (1 - gamma))
    return float(below + diff * gamma)


def _spline_design(
    rows: _FitRows, spec: FcarSpec, basis: SplineBasis
) -> tuple[_TentRows, tuple[_SplineBlock, ...]]:
    """The basis at the rows' u and one factored block per component."""
    n_funcs = basis.n_funcs
    if rows.t.size <= n_funcs + spec.max_lag:
        raise ValueError(
            f"series too short: {rows.t.size} usable rows for {n_funcs} "
            "coefficients per component"
        )
    tent = _tent_rows(basis, rows.umap.to_unit(rows.u))
    blocks = []
    for j, reg in zip(spec.components, rows.cols):
        r_scale = 1.0 if j == 0 else max(_abs_p95(reg), 1e-12)
        blocks.append(_spline_block(tent, reg, n_funcs, r_scale))
    return tent, tuple(blocks)


def _truncated_solve(block: _SplineBlock, qty: np.ndarray, cap: float):
    """Truncated-SVD least squares on one factored block, from one
    response's Q~' y.

    Coefficient values equal curve values at the knots, so a sane solution
    stays within a few multiples of the response/regressor scale; grossly
    larger ones mean nearly-dependent columns from knot intervals holding
    too few points.  The cutoff relative to the largest singular value runs
    through 1e-8, 1e-6, 1e-4 and 1e-2 (``_SPLINE_CUTOFFS``) and stops at the
    first whose coefficients stay within ``cap``, or at 1e-2.  Returns the
    coefficients, the rank kept and the cutoff it was kept at; D's left
    factor is applied as U' (Q~' y), so no T-row factor is formed.
    """
    sing, Vt = block.sing, block.Vt
    uty = block.U.T @ qty
    for cutoff in _SPLINE_CUTOFFS:
        keep = sing > cutoff * sing[0]
        coef = Vt[keep].T @ (uty[keep] / sing[keep])
        if not np.any(np.abs(coef) > cap):
            break
    # sing descends, so the kept directions are its first rank
    return coef, int(np.count_nonzero(keep)), cutoff


def _spline_fits(
    B: _TentRows,
    blocks: tuple[_SplineBlock, ...],
    cols: np.ndarray,
    ys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginal spline pre-fits of each response row of ``ys`` (R x n).

    Returns the coefficients (R x n_components x (N+2)), the terms
    m~_j(u_t) X_{t-j} at the rows (n_components x R x n) and the ranks
    kept (R x n_components).  Each response keeps its own coefficient cap
    and cutoff escalation, and its solve runs alone but for Q~' y, so
    every row is what it would be in a batch of one.
    """
    R, n = ys.shape
    caps = [1e3 * max(_abs_p95(y), 1e-12) for y in ys]
    coefs = np.empty((R, len(blocks), blocks[0].Vt.shape[1]))
    parts = np.empty((len(blocks), R, n))
    ranks = np.empty((R, len(blocks)), dtype=int)
    for c, (block, reg) in enumerate(zip(blocks, cols)):
        qty = block.qt(ys)
        for r in range(R):
            coef, ranks[r, c], _ = _truncated_solve(block, qty[r], caps[r] / block.r_scale)
            coefs[r, c] = coef
            parts[c, r] = (B @ coef) * reg
    return coefs, parts, ranks


def _prefit_summary(
    blocks: tuple[_SplineBlock, ...],
    y: np.ndarray,
    coefs: np.ndarray,
    parts: np.ndarray,
    ranks: np.ndarray,
) -> _SplinePrefit:
    """One response's pre-fit from its row of :func:`_spline_fits`, with
    each block's residual variance and inverse Gram band."""
    sigma2s, bands, deficient = [], [], False
    for block, part, rank in zip(blocks, parts, ranks.tolist()):
        resid = y - part
        sigma2s.append(float(resid @ resid / max(y.size - rank, 1)))
        bands.append(_gram_band(block.sing[:rank], block.Vt[:rank]))
        deficient |= rank < block.sing.size
    return _SplinePrefit(
        coeffs=coefs.T.copy(),
        parts=tuple(parts),
        sigma2s=tuple(sigma2s),
        bands=tuple(bands),
        deficient=deficient,
    )


def spline_preestimate(x: np.ndarray, spec: FcarSpec, basis: SplineBasis) -> np.ndarray:
    """Under-smoothed B-spline least-squares pre-estimates of all curves.

    Each component is fit marginally: for component ``j`` the coefficients
    minimize sum_t (X_t - sum_k lambda_k b_k(u_t) X_{t-j})^2 over the rows
    t = ``spec.max_lag`` .. T-1 on its own, leaving the other components to
    the kernel refinement stage.  Returns an (N+2, n_components) matrix,
    columns ordered as ``spec.components``.  Each block is solved through
    its SVD, taken of the knot intervals' stacked QR triangles (whose
    singular values and right factor are the block's), with singular values
    below 1e-8 of the largest treated as zero; with the default knot count,
    knot intervals holding too few points leave directions unidentified,
    and those take the minimum-norm value 0 (while the solution scale shows
    near-dependent directions survived it, the cutoff rises to 1e-6, 1e-4
    and at most 1e-2 of the largest, as :func:`_truncated_solve` says).
    :func:`fit_fcar` reports such a design in ``FcarFit.rank_deficient``.
    """
    x = np.asarray(x, dtype=float)
    rows = _fit_rows(x, spec, None)
    B, blocks = _spline_design(rows, spec, basis)
    coefs, _, _ = _spline_fits(B, blocks, rows.cols, x[rows.t][None])
    return coefs[0].T.copy()


def pseudo_responses(
    y: np.ndarray, parts: tuple[np.ndarray, ...], c: int
) -> np.ndarray:
    """Response with every pre-estimated component except the c-th removed.

    W_{t,j'} = X_t - sum_{j != j'} m~_j(u_t) X_{t-j}, one value per fit row:
    ``y`` is the response at the rows (or a block of responses, one per
    row) and ``parts`` the pre-estimated terms m~_j(u_t) X_{t-j} in
    ``spec.components`` order, of ``y``'s shape, subtracted in that order.
    """
    w = y.copy()
    for oc, part in enumerate(parts):
        if oc != c:
            w -= part
    return w


@dataclass(frozen=True)
class SbkCurve:
    """Local-linear refinement of one coefficient curve on a u grid.

    ``u`` is on the data scale.  ``reliable`` marks grid points backed by at
    least the minimum number of in-bandwidth observations and a well-posed
    local solve; ``estimate``/``lower``/``upper`` are NaN only where the
    local 2x2 system was singular.  ``obs_estimate`` carries the same
    refinement at the observed u_t (used for residuals and the smoother
    trace); ``smoother_trace`` is the accumulated diagonal of the matrix
    mapping pseudo-responses to fitted values.
    """

    target_j: int
    u: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    reliable: np.ndarray
    sigma2: float
    smoother_trace: float
    obs_estimate: np.ndarray
    obs_reliable: np.ndarray

    def __post_init__(self):
        for name in ("u", "estimate", "lower", "upper", "obs_estimate"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        for name in ("reliable", "obs_reliable"):
            object.__setattr__(
                self, name, _frozen_array(getattr(self, name), dtype=bool)
            )


def sbk_estimate(
    fit: FcarFit, u_grid: np.ndarray, prefit_variance: tuple[np.ndarray, ...]
) -> tuple[SbkCurve, ...]:
    """Kernel refinement of every coefficient curve of ``fit`` on the grid
    ``u_grid``; :attr:`FcarFit.curves` calls it on first read, so curves
    are built when read.

    ``fit.pseudos`` holds each component's pseudo-responses per fit row, in
    ``fit.spec.components`` order, and ``fit.obs_estimate`` their local
    levels at the observed u.  At each point u0 a component's
    pseudo-responses are regressed on its design column c1 and c1's
    interaction with (u_t - u0), weighted by K_h(u_t - u0); the estimate is
    the local level coefficient.

    The in-sample levels and the fit's smoother traces give the
    residual-based noise variance.  One evaluation of the running-moments
    smoother on the grid (:func:`core._moment_smoother`, the one the
    design evaluates at the observed u) then gives the levels, the flags,
    the local-linear sandwich variances and the band multipliers: the
    curves and their approximate 95% bands, the sandwich variance times
    that noise variance plus the variance the other components'
    pre-estimates carry into the pseudo-responses.
    ``prefit_variance[oc]`` (grid-aligned, data scale) is component oc's
    pre-estimate variance, and it enters component c's level scaled by the
    squared local multiplier, the kernel sum of c1 * cols[oc] over that of
    c1^2.

    A grid point is reliable when its local system is well posed and at
    least ``MIN_LOCAL_OBS`` observations lie within one bandwidth,
    counting each both as one and in proportion to c1^2 relative to the
    sample mean square.  So rows whose design value carries no
    information about the coefficient do not prop up reliability: near u
    where c1 itself vanishes (the lag-d component, whose design value
    equals u) the coefficient is unidentified no matter how many raw
    observations sit in the window.  The product estimate*c1 stays well
    behaved there, which is all the in-sample estimates need, so the
    observed-u flag counts raw observations only.
    """
    u, cols, pseudos, obs_estimate = fit.u, fit.cols, fit.pseudos, fit.obs_estimate
    sigma2s = []
    for c, (c1, pseudo) in enumerate(zip(cols, pseudos)):
        # noise variance from the component's own kernel-stage residuals,
        # degrees of freedom corrected by the smoother trace
        resid = pseudo - obs_estimate[c] * c1
        ok = np.isfinite(resid)
        dof = max(float(np.count_nonzero(ok)) - fit.traces[c], 1.0)
        sigma2s.append(float(np.nansum(resid[ok] ** 2) / dof))

    grid = _moment_smoother(u, cols, fit.bandwidth, u_grid)
    est = grid.levels(pseudos[:, None, :])[:, 0]
    info = cols * cols / np.maximum(np.mean(cols * cols, axis=1, keepdims=True), 1e-300)
    reliable = grid.ok & (grid.n_raw >= MIN_LOCAL_OBS) & (grid.window_sums(info) >= MIN_LOCAL_OBS)
    varu = grid.sandwich()
    # a pre-estimate error e(u) in component oc rides into the
    # pseudo-responses on its design column; with e nearly constant in a
    # kernel window, component c's level shifts by e(u) times the transfer
    # multiplier, so the bands stay honest about both stages
    mult2 = grid.transfer() ** 2
    curves = []
    for c, j in enumerate(fit.spec.components):
        vprop = np.zeros(u_grid.size)
        for oc, var in enumerate(prefit_variance):
            if oc != c:
                vprop += var * mult2[c, oc]
        half = 1.959963984540054 * np.sqrt(sigma2s[c] * varu[c] + vprop)
        curves.append(
            SbkCurve(
                target_j=j,
                u=u_grid,
                estimate=est[c],
                lower=est[c] - half,
                upper=est[c] + half,
                reliable=reliable[c],
                sigma2=sigma2s[c],
                smoother_trace=fit.traces[c],
                obs_estimate=obs_estimate[c],
                obs_reliable=fit.obs_reliable[c],
            )
        )
    return tuple(curves)


@dataclass(frozen=True)
class FcarOptions:
    """Tuning knobs for :func:`fit_fcar`; defaults follow the module rules.

    ``None`` picks :func:`default_knot_count` knots and the
    :func:`rule_of_thumb_bandwidth`.
    """

    n_knots: Optional[int] = None
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


def rule_of_thumb_bandwidth(u: np.ndarray, T: int) -> float:
    """1.06 sd(u) T^{-1/5} on the data scale of u."""
    sd = float(np.std(u))
    if sd == 0.0:
        raise ValueError("cannot pick a bandwidth for a constant u sample")
    return 1.06 * sd * T ** (-0.2)


@dataclass(frozen=True)
class FcarFit:
    """Fitted functional-coefficient autoregression.

    ``spline_coeffs`` holds the (N+2) x n_components spline pre-estimate,
    the knot values of each component's curve in ``spec.components`` order
    (``_tent_rows(basis, u_transform.to_unit(u)) @ spline_coeffs[:, c]``
    evaluates curve c at data-scale u).
    ``fitted`` and ``residuals`` cover rows ``t_start`` .. T-1 of the input
    series.  ``rank_deficient`` is set when a spline block had rank below
    N+2 and took minimum-norm coefficients.

    The rest is what the curves need, O(T + N) values and no part of the
    design, one row per component in ``spec.components`` order: ``u`` is
    the functional variable per fit row (data scale), ``cols`` the design
    columns, ``pseudos`` the pseudo-responses and ``obs_estimate`` their
    local levels at the observed u, ``obs_reliable`` the observed-u flags
    and ``traces`` the smoother traces, and ``prefit_cov`` the diagonal
    (``[c, 0]``) and superdiagonal (``[c, 1, :-1]``) of each spline
    pre-estimate's coefficient covariance sigma^2 G.  The curves are built
    when read (:attr:`curves`).
    """

    spec: FcarSpec
    basis: SplineBasis
    u_transform: UTransform
    spline_coeffs: np.ndarray
    bandwidth: float
    t_start: int
    fitted: np.ndarray
    residuals: np.ndarray
    rank_deficient: bool
    u: np.ndarray
    cols: np.ndarray
    pseudos: np.ndarray
    obs_estimate: np.ndarray
    obs_reliable: np.ndarray
    traces: tuple[float, ...]
    prefit_cov: np.ndarray

    def __post_init__(self):
        for name in ("spline_coeffs", "fitted", "residuals", "u", "cols", "pseudos",
                     "obs_estimate", "prefit_cov"):
            object.__setattr__(self, name, _kept(getattr(self, name)))
        object.__setattr__(self, "obs_reliable", _kept(self.obs_reliable, dtype=bool))

    @functools.cached_property
    def curves(self) -> tuple[SbkCurve, ...]:
        """One :class:`SbkCurve` per component in ``spec.components`` order,
        on ``GRID_SIZE`` points spanning the observed u, built when first
        read and kept: each pre-estimate's variance on the grid,
        b(u)' sigma^2 G b(u) from the band of its covariance, then
        :func:`sbk_estimate`."""
        u_grid = np.linspace(self.u.min(), self.u.max(), GRID_SIZE)
        tent = _tent_rows(self.basis, self.u_transform.to_unit(u_grid))
        return sbk_estimate(self, u_grid, tuple(tent.quadratic(cov) for cov in self.prefit_cov))


@dataclass(frozen=True)
class _FitDesign:
    """Everything of one fit that the response cannot change.

    The regression rows, the basis and its values ``B`` at the rows' u (by
    knot interval), the factored spline block of each component, the
    bandwidth ``h`` (data scale of u), and the running-moments smoother
    ``obs`` evaluated at the observed u (:func:`core._moment_smoother`):
    the sorted rows cut into bins, each component's Gram sums folded into
    the weights of a response's moments, and the well-posed flags, with
    its ``reliable`` flags and smoother ``traces``
    (:func:`_observed_smoother`).  :func:`_solve` fits a block of
    responses on it, so one design serves every response that shares the
    series, spec, options and start.  A design holds O(T) values plus
    each block's 2(N+1) x (N+2) factors.
    """

    spec: FcarSpec
    basis: SplineBasis
    rows: _FitRows
    B: _TentRows
    blocks: tuple[_SplineBlock, ...]
    h: float
    obs: _MomentSmoother
    reliable: np.ndarray
    traces: tuple[float, ...]

    def levels(self, pseudos: np.ndarray) -> np.ndarray:
        """Local levels at the observed u of pseudo-responses ``pseudos``
        (components x R x n: R responses per component); NaN where the
        local system is singular."""
        return self.obs.levels(pseudos)


def _observed_smoother(u: np.ndarray, cols: np.ndarray, h: float):
    """The running-moments smoother at the observed u, its read-only flags
    (a well-posed local system with at least ``MIN_LOCAL_OBS`` observations
    within one bandwidth, one row per component) and each component's
    smoother trace, for design columns ``cols`` and bandwidth ``h``."""
    obs = _moment_smoother(u, cols, h, u)
    reliable = _frozen_array(obs.ok & (obs.n_raw >= MIN_LOCAL_OBS), dtype=bool)
    traces = tuple(float(t) for t in np.nansum(obs.diag(), axis=1))
    return obs, reliable, traces


def _fit_design(
    x: np.ndarray,
    spec: FcarSpec,
    options: Optional[FcarOptions],
    t_start: Optional[int],
) -> _FitDesign:
    """The design of a :func:`fit_fcar` call; the series is checked by
    :func:`_fit_rows` before anything else is built."""
    opts = options or FcarOptions()
    x = np.asarray(x, dtype=float)
    rows = _fit_rows(x, spec, t_start)
    T = x.size
    n_knots = opts.n_knots if opts.n_knots is not None else default_knot_count(T)
    basis = SplineBasis(n_knots)
    B, blocks = _spline_design(rows, spec, basis)
    u = rows.u
    h = float(opts.bandwidth if opts.bandwidth is not None else rule_of_thumb_bandwidth(u, T))
    return _FitDesign(spec, basis, rows, B, blocks, h, *_observed_smoother(u, rows.cols, h))


class _Solved(NamedTuple):
    """The solve of R responses on one design, one row per response: the
    responses at the fit rows ``ys`` (R x n), the spline pre-fits'
    ``coefs``, ``parts`` and ``ranks`` (:func:`_spline_fits`), the
    ``pseudos`` and their local levels ``obs_estimate`` at the observed u
    (n_components x R x n) and the ``fitted`` values (R x n)."""

    ys: np.ndarray
    coefs: np.ndarray
    parts: np.ndarray
    ranks: np.ndarray
    pseudos: np.ndarray
    obs_estimate: np.ndarray
    fitted: np.ndarray


def _solve(design: _FitDesign, responses: np.ndarray) -> _Solved:
    """Fit each length-T row of ``responses`` on ``design``, read at its rows.

    The spline pre-fits, the pseudo-responses and their local levels at
    the observed u, read off the design's running-moments smoother in O(T)
    per response, and the fitted values.  A row's values equal those of a
    solve of that row alone, bit for bit: the pre-fits run response by
    response (:func:`_spline_fits`), the smoother takes one response per
    component at a time (``core._MomentSmoother.levels``), and the rest is
    elementwise or sums over the components in their order.
    """
    rows = design.rows
    ys = responses[:, rows.t]
    coefs, parts, ranks = _spline_fits(design.B, design.blocks, rows.cols, ys)
    pseudos = np.array([pseudo_responses(ys, parts, c) for c in range(len(rows.cols))])
    obs_est = design.levels(pseudos)

    # Rows where any component's local solve is unreliable fall back to the
    # first marginal pre-fit's prediction: each marginal fit predicts the
    # whole response on its own, so summing per-component spline fallbacks
    # would count the response more than once.
    finite = np.isfinite(obs_est)
    kernel_sum = np.add.reduce(
        np.where(finite, obs_est, 0.0) * rows.cols[:, None, :], axis=0, initial=0.0
    )
    row_ok = np.logical_and.reduce(design.reliable[:, None, :] & finite, axis=0)
    fitted = np.where(row_ok, kernel_sum, parts[0])
    return _Solved(ys, coefs, parts, ranks, pseudos, obs_est, fitted)


def _solve_fit(design: _FitDesign, response: np.ndarray) -> FcarFit:
    """The fit of the length-T series ``response`` on ``design``: a
    :func:`_solve` of one response, with each pre-fit's residual variance
    and inverse Gram band.  No grid is built: the curves are built when
    the fit's ``curves`` are read.
    """
    rows = design.rows
    solved = _solve(design, np.asarray(response, dtype=float)[None])
    y, fitted = solved.ys[0], solved.fitted[0]
    prefit = _prefit_summary(design.blocks, y, solved.coefs[0], solved.parts[:, 0], solved.ranks[0])
    residuals = y - fitted
    prefit_cov = np.array([s2 * band for s2, band in zip(prefit.sigma2s, prefit.bands)])
    # nothing else refers to these: made read-only here, the fit keeps them
    # uncopied (_kept)
    for a in (prefit.coeffs, residuals, prefit_cov):
        a.flags.writeable = False
    return FcarFit(
        spec=design.spec,
        basis=design.basis,
        u_transform=rows.umap,
        spline_coeffs=prefit.coeffs,
        bandwidth=design.h,
        t_start=int(rows.t[0]),
        fitted=fitted,
        residuals=residuals,
        rank_deficient=prefit.deficient,
        u=rows.u,
        cols=rows.cols,
        pseudos=solved.pseudos[:, 0],
        obs_estimate=solved.obs_estimate[:, 0],
        obs_reliable=design.reliable,
        traces=design.traces,
        prefit_cov=prefit_cov,
    )


def fit_fcar(
    x: np.ndarray,
    spec: FcarSpec,
    options: Optional[FcarOptions] = None,
    *,
    t_start: Optional[int] = None,
) -> FcarFit:
    """Fit the model by the three-step spline-backfitted kernel procedure.

    The series should be detrended and mean-centered.  Rows start at
    ``t_start`` (never before ``spec.max_lag``).

    Returns a :class:`FcarFit` whose ``fitted + residuals`` reproduce the
    series rows exactly; its curves are built when read.
    """
    return _solve_fit(_fit_design(x, spec, options, t_start), x)


def effective_params(fit: FcarFit) -> float:
    """Sum over coefficient curves of the local-linear smoother trace."""
    return float(sum(fit.traces))
