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
bandwidth fall back to the spline pre-estimate.  The refined curves carry
approximate 95% pointwise bands combining the local-linear sandwich
variance with the sampling variance the pre-estimates carry into the
pseudo-responses.

When the intercept curve m_0 is present and lag d is kept among the
regressors, m_0(u) and m_d(u)*u are only weakly separated (both are
functions of u alone); :meth:`FcarSpec.delay_absorbed` builds the rewritten
form that folds the lag-d term into m_0.  That is the right form for series
like the exponential autoregression in :mod:`skylattice.simulation`, whose
lag-d contribution is a pure function of u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import svd

from .core import kernel_values

# relative singular-value cutoff for the spline pre-estimate, and the factor
# by which it is raised while the solution stays numerically unidentified
_SPLINE_COND = 1e-8
_SPLINE_COND_STEP = 100.0
_SPLINE_COND_MAX = 1e-4

# grid/observation points backed by fewer in-bandwidth samples than this are
# flagged unreliable and fall back to the spline pre-estimate on evaluation
MIN_LOCAL_OBS = 5
# points on each coefficient curve's refinement grid
GRID_SIZE = 101


@dataclass(frozen=True)
class FcarSpec:
    """Model order for a functional-coefficient autoregression.

    ``p`` is the autoregressive order and ``d`` the delay of the functional
    variable u_t = X_{t-d} (1 <= d <= p).  ``lags`` defaults to (1, ..., p);
    passing an explicit subset fits only those lag terms, which is how the
    delay-absorbed rewrite drops the lag-d regressor.
    """

    p: int
    d: int
    include_intercept_function: bool = False
    lags: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not (1 <= self.d <= self.p):
            raise ValueError("d must satisfy 1 <= d <= p")
        lags = self.lags
        if lags is None:
            lags = tuple(range(1, self.p + 1))
        else:
            lags = tuple(int(j) for j in lags)
            if len(set(lags)) != len(lags) or any(
                j < 1 or j > self.p for j in lags
            ):
                raise ValueError("lags must be distinct integers in 1..p")
            lags = tuple(sorted(lags))
        if not lags and not self.include_intercept_function:
            raise ValueError("model has no terms: empty lags and no intercept curve")
        object.__setattr__(self, "lags", lags)

    @classmethod
    def delay_absorbed(cls, p: int, d: int) -> "FcarSpec":
        """Rewritten form with m_0 present and the lag-d regressor dropped.

        Because u_t = X_{t-d}, the term m_d(u_t) X_{t-d} = m_d(u) u is a
        function of u alone and is absorbed into the intercept curve.
        """
        return cls(
            p=p,
            d=d,
            include_intercept_function=True,
            lags=tuple(j for j in range(1, p + 1) if j != d),
        )

    @property
    def components(self) -> tuple[int, ...]:
        """Component indices in fit order; 0 denotes the intercept curve."""
        head = (0,) if self.include_intercept_function else ()
        return head + self.lags

    @property
    def max_lag(self) -> int:
        return max(max(self.lags, default=0), self.d)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "include_intercept_function": self.include_intercept_function,
            "lags": list(self.lags),
        }


@dataclass(frozen=True)
class SplineBasis:
    """Linear B-spline (tent) basis on N+2 equally spaced knots over [0,1]."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")

    @property
    def H(self) -> float:
        return 1.0 / (self.N + 1)

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


def basis_eval(basis: SplineBasis, u) -> np.ndarray:
    """Evaluate all tent functions at u in [0,1].

    Returns an (N+2,) vector for scalar u or an (n, N+2) matrix for an array.
    At most two entries per row are nonzero and each row sums to 1.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("u must lie in [0, 1]")
    dist = np.abs(u_arr[..., None] - basis.knots)
    vals = np.maximum(0.0, 1.0 - dist / basis.H)
    return vals


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

    def from_unit(self, v):
        return self.lo + np.asarray(v, dtype=float) * (self.hi - self.lo)


def _fit_rows(x: np.ndarray, spec: FcarSpec, t_start: Optional[int] = None):
    """Row indices t used for fitting, their u values, and the u map."""
    T = x.size
    start = spec.max_lag if t_start is None else max(t_start, spec.max_lag)
    if T - start < 2:
        raise ValueError("series too short for this specification")
    t = np.arange(start, T)
    u_raw = x[t - spec.d]
    lo, hi = float(u_raw.min()), float(u_raw.max())
    if not hi > lo:
        raise ValueError("functional variable is constant; cannot rescale to [0,1]")
    return t, u_raw, UTransform(lo, hi)


def _regressor(x: np.ndarray, t: np.ndarray, j: int) -> np.ndarray:
    # design column attached to component j: X_{t-j}, or 1 for the intercept
    return np.ones(t.size) if j == 0 else x[t - j]


@dataclass(frozen=True)
class _SplinePrefit:
    """Marginal spline pre-fits: coefficients plus variance bookkeeping.

    ``coeffs`` is (N+2) x n_components.  ``sigma2s``/``gram_invs`` hold, per
    component, the marginal fit's residual variance and truncated inverse
    Gram matrix; together they give the pre-estimate's pointwise sampling
    variance, which the kernel stage folds into its bands.
    """

    coeffs: np.ndarray
    sigma2s: tuple[float, ...]
    gram_invs: tuple[np.ndarray, ...]
    deficient: bool


def _block_solve(D: np.ndarray, y: np.ndarray, cap: float):
    """Truncated-SVD least squares for one component block.

    Coefficient values equal curve values at the knots, so a sane solution
    stays within a few multiples of the response/regressor scale; grossly
    larger ones mean nearly-dependent columns from knot intervals holding
    too few points, and the cutoff rises until those directions are gone.
    """
    U, sing, Vt = svd(D, full_matrices=False)
    if sing[0] <= 0.0:
        raise ValueError("degenerate spline design (all-zero block)")
    uty = U.T @ y
    cond = _SPLINE_COND
    while True:
        keep = sing > cond * sing[0]
        coef = Vt[keep].T @ (uty[keep] / sing[keep])
        if not np.any(np.abs(coef) > cap) or cond >= _SPLINE_COND_MAX:
            break
        cond *= _SPLINE_COND_STEP
    rank = int(np.count_nonzero(keep))
    gram_inv = (Vt[keep].T / sing[keep] ** 2) @ Vt[keep]
    resid = y - D @ coef
    sigma2 = float(resid @ resid / max(y.size - rank, 1))
    return coef, sigma2, gram_inv, rank


def _spline_lstsq(
    x: np.ndarray,
    spec: FcarSpec,
    basis: SplineBasis,
    response: Optional[np.ndarray],
    t_start: Optional[int],
    strict: bool,
) -> _SplinePrefit:
    t, u_raw, umap = _fit_rows(x, spec, t_start)
    n_funcs = basis.n_funcs
    if t.size <= n_funcs + spec.max_lag:
        raise ValueError(
            f"series too short: {t.size} usable rows for {n_funcs} "
            "coefficients per component"
        )
    B = basis_eval(basis, umap.to_unit(u_raw))
    y = x[t] if response is None else np.asarray(response, dtype=float)[t]
    y_scale = max(float(np.percentile(np.abs(y), 95)), 1e-12)

    cols, sigma2s, gram_invs, bad = [], [], [], []
    deficient = False
    for j in spec.components:
        reg = _regressor(x, t, j)
        r_scale = 1.0 if j == 0 else max(float(np.percentile(np.abs(reg), 95)), 1e-12)
        D = B * reg[:, None]
        coef, sigma2, gram_inv, rank = _block_solve(D, y, 1e3 * y_scale / r_scale)
        if rank < n_funcs:
            deficient = True
            bad.append(j)
        cols.append(coef)
        sigma2s.append(sigma2)
        gram_invs.append(gram_inv)
    if deficient and strict:
        raise ValueError(f"rank-deficient spline design; deficient component blocks: {bad}")
    return _SplinePrefit(
        coeffs=np.column_stack(cols),
        sigma2s=tuple(sigma2s),
        gram_invs=tuple(gram_invs),
        deficient=deficient,
    )


def spline_preestimate(
    x: np.ndarray,
    spec: FcarSpec,
    basis: SplineBasis,
    *,
    response: Optional[np.ndarray] = None,
    t_start: Optional[int] = None,
    strict: bool = False,
) -> np.ndarray:
    """Under-smoothed B-spline least-squares pre-estimates of all curves.

    Each component is fit marginally: for component ``j`` the coefficients
    minimize sum_t (X_t - sum_k lambda_k b_k(u_t) X_{t-j})^2 on its own,
    leaving the other components to the kernel refinement stage.  Returns
    an (N+2, n_components) matrix, columns ordered as ``spec.components``.
    Each block is solved through the SVD with singular values below 1e-8 of
    the largest treated as zero; with the default knot count, knot intervals
    holding too few points leave directions unidentified, and those take the
    minimum-norm value 0 (the cutoff rises automatically while the solution
    scale shows near-dependent directions survived it).  With ``strict`` set
    a rank-deficient design raises instead, naming the deficient component
    blocks.

    ``response`` substitutes a different left-hand side for X_t (used by the
    lattice model, whose temporal stage regresses spatial residuals on
    lagged values of the original series).
    """
    x = np.asarray(x, dtype=float)
    return _spline_lstsq(x, spec, basis, response, t_start, strict).coeffs


def _spline_curve(coeffs: np.ndarray, comp_index: int, u_unit: np.ndarray) -> np.ndarray:
    basis = SplineBasis(coeffs.shape[0] - 2)
    return basis_eval(basis, np.clip(u_unit, 0.0, 1.0)) @ coeffs[:, comp_index]


def pseudo_responses(
    x: np.ndarray,
    spec: FcarSpec,
    spline_coeffs: np.ndarray,
    target_j: int,
    *,
    response: Optional[np.ndarray] = None,
    t_start: Optional[int] = None,
) -> np.ndarray:
    """Response with every estimated component except ``target_j`` removed.

    W_{t,j'} = X_t - sum_{j != j'} m~_j(u_t) X_{t-j}, one value per fit row.
    The basis size is recovered from the coefficient matrix shape.
    """
    x = np.asarray(x, dtype=float)
    comps = spec.components
    if target_j not in comps:
        raise ValueError(
            f"target_j={target_j} is not a fitted component; expected one of {comps}"
        )
    basis = SplineBasis(spline_coeffs.shape[0] - 2)
    t, u_raw, umap = _fit_rows(x, spec, t_start)
    u_unit = umap.to_unit(u_raw)
    w = (x[t] if response is None else np.asarray(response, dtype=float)[t]).copy()
    for c, j in enumerate(comps):
        if j == target_j:
            continue
        w -= _spline_curve(spline_coeffs, c, u_unit) * _regressor(x, t, j)
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
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        for name in ("reliable", "obs_reliable"):
            arr = np.asarray(getattr(self, name), dtype=bool)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


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


def _local_linear(
    u_obs: np.ndarray,
    c1: np.ndarray,
    w: np.ndarray,
    u_eval: np.ndarray,
    h: float,
):
    """Weighted local-linear solve of w ~ c1 at each evaluation point.

    Returns (estimate, unit_variance, reliable, raw_reliable, a11_inv):
    unit_variance is the sandwich variance per unit noise variance and
    a11_inv the (1,1) entry of the inverted local Gram matrix (needed for
    the smoother diagonal).  Singular local systems yield NaN estimates and
    both reliability flags False.

    ``reliable`` counts effective observations: an in-bandwidth observation
    counts in proportion to c1^2 relative to the sample mean square, so
    rows whose design value carries no information about the coefficient
    do not prop up reliability.  Near u where c1 itself vanishes (the lag-d
    component, whose design value equals u) the coefficient is unidentified
    no matter how many raw observations sit in the window, and this flag
    says so.  ``raw_reliable`` keeps the plain in-bandwidth count; the
    product estimate*c1 stays well behaved there even where the coefficient
    alone does not, which is what in-sample fitted values need.

    The kernel sums run over :func:`_kernel_windows`: for each evaluation
    point, a window of observations that is a superset of the kernel's
    support.  Observations outside the window have zero kernel weight and lie outside the
    bandwidth, so they add nothing to any sum or count, and the results
    equal the sums over all observations up to summation order.
    """
    n_eval = u_eval.size
    est = np.full(n_eval, np.nan)
    varu = np.full(n_eval, np.nan)
    a11inv = np.full(n_eval, np.nan)
    reliable = np.zeros(n_eval, dtype=bool)
    raw_reliable = np.zeros(n_eval, dtype=bool)
    info_wt = c1**2 / max(float(np.mean(c1**2)), 1e-300)
    for sl, idx, diff, k in _kernel_windows(u_obs, u_eval, h):
        in_bw = np.abs(diff) <= h
        n_raw = np.count_nonzero(in_bw, axis=1)
        n_info = (in_bw * info_wt[idx]).sum(axis=1)
        c1w, ww = c1[idx], w[idx]
        c2 = c1w * diff
        kc1 = k * c1w**2
        a00 = kc1.sum(axis=1)
        a01 = (k * c1w * c2).sum(axis=1)
        a11 = (k * c2 * c2).sum(axis=1)
        b0 = (k * c1w * ww).sum(axis=1)
        b1 = (k * c2 * ww).sum(axis=1)
        det = a00 * a11 - a01 * a01
        scale = np.abs(a00 * a11) + a01 * a01
        ok = det > 1e-12 * np.maximum(scale, 1e-300)
        good = np.where(ok)[0]
        est[sl][good] = (a11[good] * b0[good] - a01[good] * b1[good]) / det[good]
        # sandwich: first diagonal entry of A^-1 B A^-1
        k2 = k * k
        s00 = (k2 * c1w**2).sum(axis=1)
        s01 = (k2 * c1w * c2).sum(axis=1)
        s11 = (k2 * c2 * c2).sum(axis=1)
        num = (
            a11[good] ** 2 * s00[good]
            - 2.0 * a11[good] * a01[good] * s01[good]
            + a01[good] ** 2 * s11[good]
        )
        varu[sl][good] = num / det[good] ** 2
        a11inv[sl][good] = a11[good] / det[good]
        reliable[sl] = ok & (n_raw >= MIN_LOCAL_OBS) & (n_info >= MIN_LOCAL_OBS)
        raw_reliable[sl] = ok & (n_raw >= MIN_LOCAL_OBS)
    return est, varu, reliable, raw_reliable, a11inv


def _local_transfer(
    u_obs: np.ndarray,
    c1: np.ndarray,
    other: np.ndarray,
    u_eval: np.ndarray,
    h: float,
) -> np.ndarray:
    """Local multiplier mapping an error riding on ``other`` into the level.

    A pre-estimate error in another component enters the pseudo-response as
    e(u_t) * other_t with e nearly constant inside a kernel window, so the
    local level estimate shifts by roughly e(u) times this ratio.  Used to
    propagate pre-estimate sampling variance into the bands.
    """
    mult = np.full(u_eval.size, np.nan)
    for sl, idx, _, k in _kernel_windows(u_obs, u_eval, h):
        c1w = c1[idx]
        num = (k * c1w * other[idx]).sum(axis=1)
        den = (k * c1w**2).sum(axis=1)
        good = den > 0.0
        mult[sl] = np.divide(num, den, out=np.full(den.shape, np.nan), where=good)
    return mult


def sbk_estimate(
    x: np.ndarray,
    pseudo: np.ndarray,
    spec: FcarSpec,
    target_j: int,
    u_grid: np.ndarray,
    h: float,
    *,
    t_start: Optional[int] = None,
    extra_band_variance: Optional[np.ndarray] = None,
) -> SbkCurve:
    """Kernel refinement of one coefficient curve from its pseudo-responses.

    At each grid point u the pseudo-responses are regressed on the
    component's own design column (X_{t-j'} for a lag term, the constant 1
    for the intercept curve) and its interaction with (u_t - u), weighted by
    K_h(u_t - u); the estimate is the local level coefficient.  Approximate
    95% bands use the local-linear sandwich variance with a residual-based
    noise variance; ``extra_band_variance`` (grid-aligned, data scale) adds
    the variance the pre-estimates carry into the pseudo-responses.  Grid
    points backed by fewer than ``MIN_LOCAL_OBS`` observations within one
    bandwidth are flagged unreliable.

    ``u_grid`` is on the data scale of u.
    """
    x = np.asarray(x, dtype=float)
    pseudo = np.asarray(pseudo, dtype=float)
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    comps = spec.components
    if target_j not in comps:
        raise ValueError(
            f"target_j={target_j} is not a fitted component; expected one of {comps}"
        )
    t, u_raw, _ = _fit_rows(x, spec, t_start)
    if pseudo.size != t.size:
        raise ValueError("pseudo-response length does not match the fit rows")
    c1 = _regressor(x, t, target_j)
    u_grid = np.asarray(u_grid, dtype=float)

    est, varu, reliable, _, _ = _local_linear(u_raw, c1, pseudo, u_grid, h)
    obs_est, _, _, obs_rel, obs_a11inv = _local_linear(u_raw, c1, pseudo, u_raw, h)

    # noise variance from the component's own kernel-stage residuals,
    # degrees of freedom corrected by the smoother trace
    k0 = kernel_values(np.zeros(1))[0] / h
    trace = float(np.nansum(k0 * c1**2 * obs_a11inv))
    fitted = obs_est * c1
    resid = pseudo - fitted
    ok = np.isfinite(resid)
    dof = max(float(np.count_nonzero(ok)) - trace, 1.0)
    sigma2 = float(np.nansum(resid[ok] ** 2) / dof)

    band_var = sigma2 * varu
    if extra_band_variance is not None:
        band_var = band_var + np.asarray(extra_band_variance, dtype=float)
    half = 1.959963984540054 * np.sqrt(band_var)
    return SbkCurve(
        target_j=target_j,
        u=u_grid,
        estimate=est,
        lower=est - half,
        upper=est + half,
        reliable=reliable,
        sigma2=sigma2,
        smoother_trace=trace,
        obs_estimate=obs_est,
        obs_reliable=obs_rel,
    )


@dataclass(frozen=True)
class FcarOptions:
    """Tuning knobs for :func:`fit_fcar`; defaults follow the module rules.

    ``None`` picks :func:`default_knot_count` knots and the
    :func:`rule_of_thumb_bandwidth`; ``strict_rank`` makes a rank-deficient
    spline design raise instead of taking minimum-norm coefficients.
    """

    n_knots: Optional[int] = None
    bandwidth: Optional[float] = None
    strict_rank: bool = False

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

    ``curves`` holds one :class:`SbkCurve` per component in ``spec.components``
    order; ``spline_coeffs`` the (N+2) x n_components pre-estimate used for
    fallback evaluation wherever the kernel stage is unreliable.  ``fitted``
    and ``residuals`` cover rows ``t_start`` .. T-1 of the input series.
    """

    spec: FcarSpec
    basis: SplineBasis
    u_transform: UTransform
    spline_coeffs: np.ndarray
    curves: tuple[SbkCurve, ...]
    bandwidth: float
    t_start: int
    fitted: np.ndarray
    residuals: np.ndarray
    rank_deficient: bool = False

    def __post_init__(self):
        for name in ("spline_coeffs", "fitted", "residuals"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_obs(self) -> int:
        return self.residuals.size

    @property
    def residual_variance(self) -> float:
        return float(np.mean(self.residuals**2))

    def _curve_for(self, j: int) -> SbkCurve:
        for curve in self.curves:
            if curve.target_j == j:
                return curve
        raise KeyError(f"no fitted component {j}")

    def _grid_values(self, curve: SbkCurve) -> np.ndarray:
        # kernel estimate where trustworthy, spline pre-estimate elsewhere
        comp = self.spec.components.index(curve.target_j)
        spline_vals = _spline_curve(
            self.spline_coeffs, comp, self.u_transform.to_unit(curve.u)
        )
        use = curve.reliable & np.isfinite(curve.estimate)
        return np.where(use, curve.estimate, spline_vals)

    def coefficient(self, j: int, u) -> np.ndarray:
        """Evaluate coefficient curve j at data-scale u.

        Linear interpolation on the refinement grid, with the spline
        pre-estimate substituted at unreliable grid points; u outside the
        grid clamps to the endpoints.
        """
        curve = self._curve_for(j)
        vals = self._grid_values(curve)
        return np.interp(np.asarray(u, dtype=float), curve.u, vals)

    @property
    def reliable_u_range(self) -> tuple[float, float]:
        """Data-scale range of u where every component's refinement holds."""
        ok = np.ones(self.curves[0].u.size, dtype=bool)
        for curve in self.curves:
            ok &= curve.reliable
        if not ok.any():
            u = self.curves[0].u
            return float(u[0]), float(u[-1])
        u = self.curves[0].u[ok]
        return float(u[0]), float(u[-1])

    def to_dict(self) -> dict:
        res = self.residuals
        return {
            "spec": self.spec.to_dict(),
            "knots": self.basis.knots.tolist(),
            "u_transform": {"lo": self.u_transform.lo, "hi": self.u_transform.hi},
            "spline_coeffs": self.spline_coeffs.tolist(),
            "bandwidth": self.bandwidth,
            "effective_params": effective_params(self),
            "curves": [
                {
                    "target_j": c.target_j,
                    "u": c.u.tolist(),
                    "estimate": c.estimate.tolist(),
                    "lower": c.lower.tolist(),
                    "upper": c.upper.tolist(),
                    "reliable": c.reliable.astype(int).tolist(),
                }
                for c in self.curves
            ],
            "residuals": {
                "n": int(res.size),
                "variance": float(np.mean(res**2)),
                "sd": float(np.std(res)),
                "min": float(res.min()),
                "max": float(res.max()),
            },
        }


def fit_fcar(
    x: np.ndarray,
    spec: FcarSpec,
    options: Optional[FcarOptions] = None,
    *,
    response: Optional[np.ndarray] = None,
    t_start: Optional[int] = None,
) -> FcarFit:
    """Fit the model by the three-step spline-backfitted kernel procedure.

    The series should be detrended and mean-centered.  ``response``/
    ``t_start`` support fitting the temporal component of the lattice model,
    where the left-hand side is a residual series but the regressors and the
    functional variable still come from the original series ``x``.

    Returns a :class:`FcarFit` whose ``fitted + residuals`` reproduce the
    response rows exactly.
    """
    opts = options or FcarOptions()
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D series")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    T = x.size
    n_knots = opts.n_knots if opts.n_knots is not None else default_knot_count(T)
    basis = SplineBasis(n_knots)
    t, u_raw, umap = _fit_rows(x, spec, t_start)
    prefit = _spline_lstsq(x, spec, basis, response, t_start, opts.strict_rank)
    coeffs = prefit.coeffs
    h = opts.bandwidth if opts.bandwidth is not None else rule_of_thumb_bandwidth(u_raw, T)
    u_grid = np.linspace(u_raw.min(), u_raw.max(), GRID_SIZE)
    grid_B = basis_eval(basis, umap.to_unit(u_grid))

    # b(u)' G b(u): each component's spline pre-estimate variance on the
    # grid, per unit noise variance
    quads = [((grid_B @ g) * grid_B).sum(axis=1) for g in prefit.gram_invs]

    curves = []
    for j in spec.components:
        pseudo = pseudo_responses(
            x, spec, coeffs, j, response=response, t_start=t_start
        )
        # pre-estimate noise rides into the pseudo-responses on the other
        # components' design columns; fold its propagated variance into the
        # bands so they stay honest about both estimation stages
        c1 = _regressor(x, t, j)
        vprop = np.zeros(u_grid.size)
        for oc, o in enumerate(spec.components):
            if o == j:
                continue
            mult = _local_transfer(u_raw, c1, _regressor(x, t, o), u_grid, h)
            vprop += (
                prefit.sigma2s[oc]
                * quads[oc]
                * np.where(np.isfinite(mult), mult, 0.0) ** 2
            )
        curves.append(
            sbk_estimate(
                x,
                pseudo,
                spec,
                j,
                u_grid,
                h,
                t_start=t_start,
                extra_band_variance=vprop,
            )
        )

    # in-sample fitted values from the kernel estimates at the observed u.
    # Rows where any component's local solve is unreliable fall back to the
    # first marginal pre-fit's prediction: each marginal fit predicts the
    # whole response on its own, so summing per-component spline fallbacks
    # would count the response more than once.
    kernel_sum = np.zeros(t.size)
    row_ok = np.ones(t.size, dtype=bool)
    for j, curve in zip(spec.components, curves):
        kernel_sum += np.where(
            np.isfinite(curve.obs_estimate), curve.obs_estimate, 0.0
        ) * _regressor(x, t, j)
        row_ok &= curve.obs_reliable & np.isfinite(curve.obs_estimate)
    first = spec.components[0]
    pilot = _spline_curve(coeffs, 0, umap.to_unit(u_raw)) * _regressor(x, t, first)
    fitted = np.where(row_ok, kernel_sum, pilot)
    y = x[t] if response is None else np.asarray(response, dtype=float)[t]
    residuals = y - fitted

    return FcarFit(
        spec=spec,
        basis=basis,
        u_transform=umap,
        spline_coeffs=coeffs,
        curves=tuple(curves),
        bandwidth=float(h),
        t_start=int(t[0]),
        fitted=fitted,
        residuals=residuals,
        rank_deficient=prefit.deficient,
    )


def effective_params(fit: FcarFit) -> float:
    """Sum over coefficient curves of the local-linear smoother trace."""
    return float(sum(curve.smoother_trace for curve in fit.curves))


def forecast_fcar(fit: FcarFit, history: Sequence[float], steps: int) -> np.ndarray:
    """Iterated plug-in forecasts from the last observed values.

    One-step: X^_{t+1} = m^_0(u) + sum_j m^_j(u) X_{t+1-j} with u taken from
    the delay lag and clamped into the refinement grid's reliable range;
    multi-step feeds predictions back in as history.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    buf = list(np.asarray(history, dtype=float))
    need = fit.spec.max_lag
    if len(buf) < need:
        raise ValueError(f"history must hold at least {need} values")
    lo, hi = fit.reliable_u_range
    out = []
    for _ in range(steps):
        u = min(max(buf[-fit.spec.d], lo), hi)
        val = 0.0
        for j in fit.spec.components:
            coef = float(fit.coefficient(j, u))
            val += coef if j == 0 else coef * buf[-j]
        out.append(val)
        buf.append(val)
    return np.array(out)


def select_fcar_order(
    x: np.ndarray,
    p_max: int = 4,
    include_intercept_function: bool = False,
    options: Optional[FcarOptions] = None,
) -> FcarSpec:
    """Pick (p, d) by an AIC-style score over p in 1..p_max, d in 1..p.

    Score = n ln(residual variance) + 2 * effective_params, all candidates
    fitted on the same trailing rows so scores are comparable.
    """
    x = np.asarray(x, dtype=float)
    best, best_score = None, math.inf
    for p in range(1, p_max + 1):
        for d in range(1, p + 1):
            spec = FcarSpec(p=p, d=d, include_intercept_function=include_intercept_function)
            try:
                fit = fit_fcar(x, spec, options, t_start=p_max)
            except ValueError:
                continue
            n = fit.n_obs
            score = n * math.log(max(fit.residual_variance, 1e-300)) + 2.0 * (
                effective_params(fit)
            )
            if score < best_score:
                best, best_score = spec, score
    if best is None:
        raise ValueError("no candidate order could be fitted")
    return best
