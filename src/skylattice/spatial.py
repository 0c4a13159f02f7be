"""Spatial lattice model and natural-neighbor interpolation.

Two spatial tools share this module.  The first is a simultaneous
autoregressive (SAR) model on the sensor lattice, y = rho * W y + delta,
with a k-nearest-neighbor weight matrix; rho is fit by maximizing the
Gaussian profile log-likelihood, whose determinant term comes from the
eigenvalues of W (computed once per graph).  That term depends on rho
alone, so a field's per-time fits share one scan grid and its
determinant sums, and their golden-section searches advance in lockstep
over all time columns; every column still gets the arithmetic of a fit on
that column alone.  The second is Sibson
natural-neighbor interpolation: a query point's prediction is the
area-weighted average of the sensors whose Voronoi cells the query would
steal area from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.spatial import ConvexHull, QhullError, Voronoi

from .core import SensorLayout, SpatioTemporalField, _frozen_array

# golden-section tolerance on rho, and the number of admissible-interval
# scan points used to bracket the maximum before the search
_RHO_TOL = 1e-6
_RHO_SCAN = 201
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# why a column cannot be fit, indexed by the code of its first failed
# check (0: fitted)
_FIT_ERRORS = (
    "",
    "y must be finite",
    "profile likelihood is not finite: y is identically zero",
    "admissible rho interval collapsed",
    "profile likelihood is not finite on the admissible interval",
    # what math.log raises for a positive value that underflows to 0
    "math domain error",
)


@dataclass(frozen=True)
class NeighborGraph:
    """k-nearest-neighbor structure and its spatial weight matrix.

    ``neighbors[i]`` lists the k nearest sensors of sensor i, nearest
    first, distance ties broken by sensor id so construction is
    deterministic.  ``W`` is the spatial weight matrix; the eigenvalues of
    W are computed at construction and reused by every SAR fit on this
    graph.
    """

    layout: SensorLayout
    k: int
    neighbors: tuple[tuple[int, ...], ...]
    W: np.ndarray
    eigenvalues: np.ndarray = dc_field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        W = _frozen_array(self.W)
        object.__setattr__(self, "W", W)
        eig = self.eigenvalues
        if eig is None:
            eig = np.linalg.eigvals(W)
        # eigenvalues of a non-symmetric W may be complex: keep their dtype
        object.__setattr__(self, "eigenvalues", _frozen_array(eig, dtype=None))

    @property
    def n_sensors(self) -> int:
        return self.layout.n_sensors

    @property
    def rho_interval(self) -> tuple[float, float]:
        """Open interval of rho keeping I - rho*W invertible.

        Bounds are the reciprocals of the extreme real eigenvalues of W;
        complex pairs never make det(I - rho*W) vanish for real rho.
        """
        eig = self.eigenvalues
        real = eig.real[np.abs(eig.imag) <= 1e-9 * np.maximum(1.0, np.abs(eig))]
        lam_min = float(real.min()) if real.size else -1.0
        lam_max = float(real.max()) if real.size else 1.0
        lo = 1.0 / lam_min if lam_min < 0 else -10.0
        hi = 1.0 / lam_max if lam_max > 0 else 10.0
        return lo, hi


def _nearest_first(layout: SensorLayout, point) -> tuple[np.ndarray, list[int]]:
    """Distances from ``point`` to every sensor, and sensor indices nearest first.

    Ties at equal distance are broken by sensor id, so the order is a pure
    function of the layout and the point.
    """
    dist = np.hypot(layout.xy[:, 0] - point[0], layout.xy[:, 1] - point[1])
    order = sorted(range(layout.n_sensors), key=lambda i: (dist[i], layout.ids[i]))
    return dist, order


def _check_same_layout(a: SensorLayout, b: SensorLayout, what: str) -> None:
    """Raise unless two layouts hold the same sensor ids at the same coordinates."""
    if a.ids != b.ids or not np.array_equal(a.xy, b.xy):
        raise ValueError(f"{what}: field layout does not match the graph layout")


def build_neighbor_graph(layout: SensorLayout, k: int) -> NeighborGraph:
    """k nearest neighbors per sensor by Euclidean distance.

    Ties at equal distance are broken by sensor id, so the graph is a pure
    function of the layout.  ``W`` is row-standardized: each neighbor gets
    weight 1/k, so every row of W sums to 1.
    """
    S = layout.n_sensors
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= S:
        raise ValueError(f"k={k} needs at least k+1={k + 1} sensors, have {S}")
    neighbors = []
    W = np.zeros((S, S))
    for i in range(S):
        _, order = _nearest_first(layout, layout.xy[i])
        chosen = tuple(j for j in order if j != i)[:k]
        neighbors.append(chosen)
        W[i, list(chosen)] = 1.0 / k
    return NeighborGraph(layout=layout, k=k, neighbors=tuple(neighbors), W=W)


@dataclass(frozen=True)
class SarFit:
    """Maximum-likelihood SAR fit for one cross-sectional slice."""

    rho: float
    W: np.ndarray
    sigma2: float
    residuals: np.ndarray
    loglik: float
    rho_interval: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "residuals", _frozen_array(self.residuals))


class _ColumnError(ValueError):
    """A column of a lockstep SAR fit could not be fit; ``column`` is its index."""

    def __init__(self, column: int, message: str):
        super().__init__(message)
        self.column = column


# math.log applied element by element: numpy's vectorised log can differ
# from libm's in the last bit, and the RSS and variance terms must round as
# in the plain one-column loop that tests/test_spatial.py keeps as oracle
_math_log = np.frompyfunc(math.log, 1, 1)


def _logdet(rho: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """sum_i log|1 - rho*lambda_i| for each rho, summed along a contiguous row."""
    return np.sum(np.log(np.abs(1.0 - rho[:, None] * eig)), axis=1)


def _profile(logdet, rho, qa, qb, qc, S: int) -> np.ndarray:
    """Profile log-likelihood per column.

    -inf where RSS is not positive and finite; NaN where RSS/S underflows
    to 0 and has no logarithm, which fails the column.
    """
    rss = qa - 2.0 * rho * qb + rho * rho * qc
    x = rss / S
    ok = (rss > 0.0) & np.isfinite(rss)
    log_rss = _math_log(np.where(ok & (x > 0.0), x, 1.0)).astype(float)
    val = np.where(ok, logdet - 0.5 * S * log_rss, -np.inf)
    val[ok & (x == 0.0)] = np.nan
    return val


def _sar_fit_columns(Y: np.ndarray, graph: NeighborGraph):
    """Profile-ML SAR fit of every column of the S x T matrix ``Y`` at once.

    Returns ``(rho, sigma2, loglik, residuals, rho_interval)`` with (T,)
    arrays, the S x T residual matrix and the margin-trimmed interval.
    Each column gets exactly the floating-point operations of a fit on
    that column alone, so no column influences another: its own
    ``W @ y`` and dot products before the search, its own residual and
    RSS after it.  In between, the 201-point scan shares the grid and its
    log-determinant sums across columns, and the golden-section search
    advances every column one point per iteration until its own bracket
    is below the tolerance.  Raises ``_ColumnError`` naming the first
    column that cannot be fit.
    """
    S, T = Y.shape
    W, eig = graph.W, graph.eigenvalues
    lo, hi = graph.rho_interval
    margin = 1e-9 * (hi - lo)
    lo, hi = lo + margin, hi - margin

    finite = np.isfinite(Y).all(axis=0)
    WY = np.empty((T, S))
    qa, qb, qc = np.zeros(T), np.zeros(T), np.zeros(T)
    for j in np.flatnonzero(finite):
        y = Y[:, j]
        wy = W @ y
        WY[j] = wy
        qa[j], qb[j], qc[j] = y @ y, y @ wy, wy @ wy
    # first failing check per column, in the order a one-column fit runs them
    err = np.where(finite, np.where(qa == 0.0, 2, 0), 1)
    if not hi > lo:
        # every column fails, so the first one is named
        raise _ColumnError(0, _FIT_ERRORS[err[0] or 3])

    # scan: keep each column's first maximum, as np.argmax over the grid
    # would; columns failed above have qa = qb = qc = 0 and stay at -inf
    grid = np.linspace(lo, hi, _RHO_SCAN)
    grid_logdet = _logdet(grid, eig)
    i_best = np.zeros(T, dtype=np.intp)
    best_val = np.full(T, -np.inf)
    no_log = np.zeros(T, dtype=bool)
    for i in range(_RHO_SCAN):
        val = _profile(grid_logdet[i], grid[i], qa, qb, qc, S)
        no_log |= np.isnan(val)
        better = val > best_val
        i_best[better] = i
        best_val[better] = val[better]
    best_rho = grid[i_best]

    def visit(idx, x):
        """Evaluate columns ``idx`` at ``x``; a strictly better value becomes their best."""
        val = _profile(_logdet(x, eig), x, qa[idx], qb[idx], qc[idx], S)
        no_log[idx] |= np.isnan(val)
        better = val > best_val[idx]
        best_rho[idx[better]] = x[better]
        best_val[idx[better]] = val[better]
        return val

    # golden-section search on [grid[i-1], grid[i+1]], clipped at the ends
    a = grid[np.maximum(i_best - 1, 0)]
    b = grid[np.minimum(i_best + 1, _RHO_SCAN - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    idx = np.arange(T)
    fc = visit(idx, c)
    fd = visit(idx, d)
    while True:
        idx = idx[(b[idx] - a[idx]) > _RHO_TOL]
        if not idx.size:
            break
        ai, bi, ci, di = a[idx], b[idx], c[idx], d[idx]
        fci, fdi = fc[idx], fd[idx]
        left = fci >= fdi
        na = np.where(left, ai, ci)
        nb = np.where(left, di, bi)
        x = np.where(left, nb - _INVPHI * (nb - na), na + _INVPHI * (nb - na))
        a[idx], b[idx] = na, nb
        c[idx] = np.where(left, x, di)
        d[idx] = np.where(left, ci, x)
        fx = visit(idx, x)
        fc[idx] = np.where(left, fx, fdi)
        fd[idx] = np.where(left, fci, fx)
    visit(np.arange(T), 0.5 * (a + b))

    err[(err == 0) & no_log] = 5
    err[(err == 0) & ~np.isfinite(best_val)] = 4
    resid = np.zeros((S, T))
    sigma2 = np.zeros(T)
    for j in np.flatnonzero(err == 0):
        r = Y[:, j] - best_rho[j] * WY[j]
        resid[:, j] = r
        sigma2[j] = float(r @ r) / S
    err[(err == 0) & (sigma2 == 0.0)] = 5
    failed = np.flatnonzero(err)
    if failed.size:
        j = int(failed[0])
        raise _ColumnError(j, _FIT_ERRORS[err[j]])

    log_var = _math_log(2.0 * math.pi * sigma2).astype(float)
    loglik = _logdet(best_rho, eig) - 0.5 * S * (log_var + 1.0)
    return best_rho, sigma2, loglik, resid, (lo, hi)


def sar_fit_ml(y: np.ndarray, graph: NeighborGraph) -> SarFit:
    """Fit rho by profile maximum likelihood on one slice.

    The profile log-likelihood ln|det(I - rho*W)| - (S/2) ln(RSS(rho)/S)
    with RSS(rho) = ||y - rho*W y||^2 is quadratic in rho apart from the
    determinant term, which depends on rho alone and is a sum over the
    eigenvalues of W.  A 201-point scan of the admissible interval
    brackets the maximum (the first grid maximum, as ``np.argmax`` picks
    it; a maximum at either end gets the half-width bracket to its
    neighbor) and golden-section search refines it to 1e-6.  The reported
    rho is the best value ever evaluated, a later point replacing it only
    when strictly better, so it is never worse than the scan; two points
    whose values tie to rounding keep the earlier one, so an input change
    of one ulp can still move rho by the distance between them.

    This is the one-column case of the lockstep fit behind
    ``sar_residuals_field``: ``sar_fit_ml(field.values[:, j], graph)``
    returns exactly the numbers of that call's column j.
    """
    y = np.asarray(y, dtype=float)
    S = graph.n_sensors
    if y.shape != (S,):
        raise ValueError(f"y must have shape ({S},) to match the graph")
    rho, sigma2, loglik, resid, interval = _sar_fit_columns(y[:, None], graph)
    return SarFit(
        rho=float(rho[0]),
        W=graph.W,
        sigma2=float(sigma2[0]),
        residuals=resid[:, 0],
        loglik=float(loglik[0]),
        rho_interval=interval,
    )


@dataclass(frozen=True)
class SarTrace:
    """Per-time-slice rho, error variance, and log-likelihood."""

    timestamps: np.ndarray
    rho: np.ndarray
    sigma2: np.ndarray
    loglik: np.ndarray

    def __post_init__(self):
        for name in ("timestamps", "rho", "sigma2", "loglik"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


@dataclass(frozen=True)
class SarFieldResult:
    """Residual field from per-time SAR fits plus the fit trace."""

    field: SpatioTemporalField
    trace: SarTrace


def sar_residuals_field(
    field: SpatioTemporalField, graph: NeighborGraph
) -> SarFieldResult:
    """Fit the SAR model independently at every time column.

    All columns are fit in one pass: the 201-point scan evaluates the
    log-determinant sums once per grid point for every column, and the
    golden-section searches advance together, each column stopping when
    its own bracket is below the tolerance.  Each column's numbers are
    bit-identical to ``sar_fit_ml`` on that column, tie rule included (see
    ``sar_fit_ml``), and no column influences another.

    Returns the residual field (kind "residual") together with the
    per-time trace of rho, sigma2, and log-likelihood.  Any column that
    cannot be fit aborts the whole call; the error names the first such
    time index.
    """
    field.require_complete("per-time SAR fitting")
    _check_same_layout(field.layout, graph.layout, "sar_residuals_field")
    try:
        rho, sigma2, loglik, resid, _ = _sar_fit_columns(field.values, graph)
    except _ColumnError as exc:
        j = exc.column
        raise ValueError(
            f"SAR fit failed at time index {j} "
            f"(t={field.timestamps[j]:.0f}): {exc}"
        ) from exc
    out = field.replace_values(resid, kind="residual")
    trace = SarTrace(
        timestamps=field.timestamps, rho=rho, sigma2=sigma2, loglik=loglik
    )
    return SarFieldResult(field=out, trace=trace)


@dataclass(frozen=True)
class VoronoiWeights:
    """Natural-neighbor weights of one query point over the layout sensors.

    ``pairs`` holds (sensor index, weight) with weights summing to 1.
    ``hull_fallback`` marks queries on or outside the layout's convex
    hull, where the area construction is undefined and the nearest sensor
    takes all the weight.
    """

    query: tuple[float, float]
    pairs: tuple[tuple[int, float], ...]
    hull_fallback: bool = False

    def as_vector(self, n_sensors: int) -> np.ndarray:
        w = np.zeros(n_sensors)
        for i, wi in self.pairs:
            w[i] = wi
        return w


def _polygon_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _cell_areas(points: np.ndarray, n_real: int) -> np.ndarray:
    vor = Voronoi(points)
    areas = np.full(n_real, np.nan)
    for i in range(n_real):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or not region:
            continue
        areas[i] = _polygon_area(vor.vertices[region])
    return areas


def _strictly_inside_hull(xy: np.ndarray, q: np.ndarray, scale: float) -> bool:
    hull = ConvexHull(xy)
    # hull equations give outward normals: inside means all of them negative
    vals = hull.equations[:, :2] @ q + hull.equations[:, 2]
    return bool(np.all(vals < -1e-9 * scale))


def voronoi_weights(layout: SensorLayout, query: tuple[float, float]) -> VoronoiWeights:
    """Sibson natural-neighbor weights of a query point.

    Inserting the query into the Voronoi diagram of the sensors creates a
    new cell; the weight of sensor i is the fraction of that cell's area
    stolen from sensor i's old cell.  Distant corner points are appended so
    every relevant cell is bounded; they are far enough that interior cell
    boundaries are unaffected.  Queries on or outside the convex hull fall
    back to the nearest sensor with ``hull_fallback`` set; a query sitting
    exactly on a sensor returns weight 1 on that sensor.
    """
    xy = layout.xy
    q = np.asarray(query, dtype=float)
    if q.shape != (2,) or not np.all(np.isfinite(q)):
        raise ValueError("query must be a finite (x, y) pair")
    span = max(float(np.ptp(xy[:, 0])), float(np.ptp(xy[:, 1])), 1.0)

    d_to_sensors = np.hypot(xy[:, 0] - q[0], xy[:, 1] - q[1])
    hit = int(np.argmin(d_to_sensors))
    if d_to_sensors[hit] <= 1e-9 * span:
        return VoronoiWeights(query=(q[0], q[1]), pairs=((hit, 1.0),))

    try:
        inside = _strictly_inside_hull(xy, q, span)
    except QhullError as exc:
        raise ValueError(f"degenerate layout geometry: {exc}") from exc
    if not inside:
        return VoronoiWeights(
            query=(q[0], q[1]),
            pairs=((_nearest_first(layout, q)[1][0], 1.0),),
            hull_fallback=True,
        )

    center = xy.mean(axis=0)
    far = 100.0 * span
    corners = center + far * np.array(
        [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
    )
    base = np.vstack([xy, corners])
    n = xy.shape[0]
    before = _cell_areas(base, n)
    after = _cell_areas(np.vstack([base, q[None, :]]), n)
    stolen = np.where(
        np.isfinite(before) & np.isfinite(after), before - after, 0.0
    )
    stolen = np.maximum(stolen, 0.0)
    total = float(stolen.sum())
    if total <= 0.0:
        raise ValueError("natural-neighbor construction degenerated at this query")
    w = stolen / total
    pairs = tuple((int(i), float(w[i])) for i in np.nonzero(w > 1e-12)[0])
    return VoronoiWeights(query=(q[0], q[1]), pairs=pairs)


@dataclass(frozen=True)
class NaturalNeighborPrediction:
    """Interpolated series for one location plus the weights used."""

    values: np.ndarray
    weights: VoronoiWeights

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))


def natural_neighbor_predict(
    field: SpatioTemporalField,
    layout_train: SensorLayout,
    query_sensor: str,
) -> NaturalNeighborPrediction:
    """Predict one sensor's series from the others by natural neighbors.

    The weights come from the query sensor's coordinates against the
    training layout and are constant over time; the prediction at each t
    is the weighted average of the training sensors' readings.
    """
    if query_sensor in layout_train.ids:
        raise ValueError(
            f"query sensor {query_sensor!r} must be excluded from the training layout"
        )
    qi = field.layout.index_of(query_sensor)
    q = (float(field.layout.xy[qi, 0]), float(field.layout.xy[qi, 1]))
    weights = voronoi_weights(layout_train, q)
    train_rows = np.array([field.layout.index_of(s) for s in layout_train.ids])
    sub = field.values[train_rows]
    if field.mask is not None and field.mask[train_rows].any():
        raise ValueError("training sensors must have complete series")
    w = weights.as_vector(layout_train.n_sensors)
    return NaturalNeighborPrediction(values=w @ sub, weights=weights)
