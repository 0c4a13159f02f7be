"""Spatial lattice model and natural-neighbor interpolation.

Two spatial tools share this module.  The first is a simultaneous
autoregressive (SAR) model on the sensor lattice, y = rho * W y + delta,
with a k-nearest-neighbor weight matrix; rho is fit by maximizing the
Gaussian profile log-likelihood, whose determinant term comes from the
eigenvalues of W (computed once per graph), as the root of its analytic
score.  A field's per-time fits share one scan grid and run together
over all time columns, each column fit on its own numbers only.  The
second is Sibson natural-neighbor interpolation: a query point's
prediction is the area-weighted average of the sensors whose Voronoi
cells the query would steal area from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import SensorLayout, SpatioTemporalField, _frozen_array

# admissible-interval scan points that bracket the maximum, and the most
# points the root search visits in a column before it stops where it is
_RHO_SCAN = 201
_RHO_STEPS = 60
# why a column cannot be fit, indexed by the code of its first failed
# check (0: fitted)
_FIT_ERRORS = (
    "",
    "y must be finite",
    "profile likelihood is not finite: y is identically zero",
    "admissible rho interval collapsed",
    "profile likelihood is not finite on the admissible interval",
    "residual variance underflows to zero: y is too small to fit",
    "y is too large to fit: its sum of squares overflows",
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
        complex pairs never make det(I - rho*W) vanish for real rho.  LAPACK
        returns a defective real eigenvalue (an m-fold Jordan block of W) as
        a conjugate pair split by about eps**(1/m), far above the 1e-9
        cutoff of a real one.  Such a pair still makes Re(lambda) I - W
        singular, which a true complex pair does not, so a pair whose real
        part lies beyond the real extremes counts as real when the smallest
        singular value of that matrix is below sqrt(eps) ||W||.
        """
        eig, W = self.eigenvalues, self.W
        is_real = np.abs(eig.imag) <= 1e-9 * np.maximum(1.0, np.abs(eig))
        real = eig.real[is_real]
        beyond = (eig.real < real.min(initial=np.inf)) | (eig.real > real.max(initial=-np.inf))
        tol = math.sqrt(np.finfo(float).eps) * max(1.0, np.linalg.norm(W, np.inf))
        split = [
            lam.real
            for lam in eig[~is_real & beyond]
            if np.linalg.svd(lam.real * np.eye(len(W)) - W, compute_uv=False)[-1] <= tol
        ]
        real = np.append(real, split)
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


def _check_neighbor_count(k: int, n_sensors: int) -> None:
    """The rule on a graph's k: at least 1, and below the sensor count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n_sensors:
        raise ValueError(f"k={k} needs at least k+1={k + 1} sensors, have {n_sensors}")


def build_neighbor_graph(layout: SensorLayout, k: int) -> NeighborGraph:
    """k nearest neighbors per sensor by Euclidean distance.

    Ties at equal distance are broken by sensor id, so the graph is a pure
    function of the layout.  ``W`` is row-standardized: each neighbor gets
    weight 1/k, so every row of W sums to 1.
    """
    S = layout.n_sensors
    _check_neighbor_count(k, S)
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
    """Maximum-likelihood SAR fit for one cross-sectional slice, on the
    weight matrix ``W`` of the graph it was fit on."""

    rho: float
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


def _logdet(rho: np.ndarray, eig: np.ndarray) -> np.ndarray:
    """sum_i log|1 - rho*lambda_i| for each rho, summed along a contiguous row."""
    return np.sum(np.log(np.abs(1.0 - rho[:, None] * eig)), axis=1)


def _score(rho, eig, rho_star, qc, rss, S: int) -> tuple[np.ndarray, np.ndarray]:
    """Derivative in rho of the profile log-likelihood, per column, and the
    derivative of that score."""
    g = eig / (1.0 - rho[:, None] * eig)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        score = S * qc * (rho_star - rho) / rss - np.sum(g.real, axis=1)
        # qc / rss is free of the scale of y, so the slope cannot overflow
        u = qc / rss
        slope = S * u * (2.0 * u * (rho - rho_star) ** 2 - 1.0) - np.sum((g * g).real, axis=1)
    return score, slope


def _close_brackets(a, b, cols, score) -> None:
    """Narrow the score-root brackets [a, b] of columns ``cols`` in place,
    until their ends are adjacent doubles.

    ``score(x, cols)`` returns the score and its slope at ``x`` for those
    columns.  Every point visited replaces an end by its score's sign, as
    bisection would: a positive score moves ``a``, any other moves ``b``.
    The next point is a Newton step from the last one (Brent 1973, a root
    bracketed throughout).  The computed score is flat below the spacing
    of the doubles 1 - rho*lambda, where the analytic slope overstates its
    change and Newton creeps up on the root from one side; when two points
    in a row share a sign and the score fell by less than a factor 4, the
    secant through them sets the slope instead.  A step that leaves the
    open bracket or is not finite falls back to the midpoint, as does one
    taken after points on both sides of the root without the bracket
    halving over the last two; a step too small to move the point moves
    it one double toward the other end.  The columns run in lockstep, each
    on its own numbers, and leave the loop once closed; after
    ``_RHO_STEPS`` points the rest stop where they are.
    """
    x = 0.5 * (a[cols] + b[cols])
    x_prev = f_prev = np.full(cols.size, np.nan)
    width_prev = width_prev2 = b[cols] - a[cols]
    for _ in range(_RHO_STEPS):
        if not cols.size:
            break
        f, slope = score(x, cols)
        up = f > 0.0
        ca, cb = np.where(up, x, a[cols]), np.where(up, b[cols], x)
        a[cols], b[cols] = ca, cb
        same = up == (f_prev > 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = (f - f_prev) / (x - x_prev)
            linear = same & (secant * slope > 0.0) & (4.0 * np.abs(f) > np.abs(f_prev))
            nxt = x - f / np.where(linear, secant, slope)
        stall = nxt == x
        nxt = np.where(stall, np.nextafter(x, np.where(up, cb, ca)), nxt)
        width = cb - ca
        ok = stall | ((ca < nxt) & (nxt < cb) & (same | (width <= 0.5 * width_prev2)))
        x_prev, f_prev, x = x, f, np.where(ok, nxt, 0.5 * (ca + cb))
        width_prev2, width_prev = width_prev, width
        still_open = np.nextafter(ca, np.inf) < cb
        if not still_open.all():
            cols, x, x_prev, f_prev, width_prev, width_prev2 = (
                v[still_open] for v in (cols, x, x_prev, f_prev, width_prev, width_prev2)
            )


def _sar_fit_columns(Y: np.ndarray, graph: NeighborGraph):
    """Profile-ML SAR fit of every column of the S x T matrix ``Y`` at once.

    Returns ``(rho, sigma2, loglik, residuals, rho_interval)``; every step
    is elementwise or per column, so a column gets the numbers of a
    one-column call.  Raises ``_ColumnError`` naming the first column that
    cannot be fit.
    """
    S, T = Y.shape
    eig = graph.eigenvalues
    lo, hi = graph.rho_interval
    margin = 1e-9 * (hi - lo)
    lo, hi = lo + margin, hi - margin

    finite = np.isfinite(Y).all(axis=0)
    Y = np.where(finite, Y, 0.0)
    r = max(abs(lo), abs(hi), 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        # sums in sensor order (the builtin sum adds the rows of a matrix):
        # BLAS would pick its order by the number of columns
        WY = sum(graph.W[:, i, None] * Y[i] for i in range(S))
        qa, qb, qc = sum(Y * Y), sum(Y * WY), sum(WY * WY)
        # 8 S (qa + r^2 qc) bounds every sum formed below, S * RSS(rho)
        # on the interval included
        huge = ~np.isfinite(8.0 * S * (qa + r * r * qc))
    # a column whose bound overflows runs on as zeros, so it raises no
    # warning, and fails with its own code
    Y, WY = np.where(huge, 0.0, Y), np.where(huge, 0.0, WY)
    qa, qb, qc = (np.where(huge, 0.0, q) for q in (qa, qb, qc))
    # first failing check per column, in the order a one-column fit runs them
    err = np.where(finite, np.where(huge, 6, np.where(qa == 0.0, 2, 0)), 1)
    if not hi > lo:
        # every column fails, so the first one is named
        raise _ColumnError(0, _FIT_ERRORS[err[0] or 3])

    # RSS(rho) = RSS(rho*) + qc (rho - rho*)^2 about its minimum at
    # rho* = qb/qc: qa - 2 rho qb + rho^2 qc would cancel every digit of a
    # column near an eigenvector of W, such as a constant one
    rho_star = np.divide(qb, qc, out=np.zeros(T), where=qc > 0.0)
    rss_min = sum((Y - rho_star * WY) ** 2)

    def rss(rho, cols=slice(None)):
        return rss_min[cols] + qc[cols] * (rho - rho_star[cols]) ** 2

    def score(rho, cols=slice(None)):
        return _score(rho, eig, rho_star[cols], qc[cols], rss(rho, cols), S)

    def rising(rho):
        return score(rho)[0] > 0.0

    # the first grid maximum brackets the root of the score
    grid = np.linspace(lo, hi, _RHO_SCAN)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = _logdet(grid, eig)[:, None] - 0.5 * S * np.log(rss(grid[:, None]))
    vals[~np.isfinite(vals)] = -np.inf
    i_best = np.argmax(vals, axis=0)
    err[(err == 0) & ~np.isfinite(vals.max(axis=0))] = 4
    a = grid[np.maximum(i_best - 1, 0)]
    b = grid[np.minimum(i_best + 1, _RHO_SCAN - 1)]
    # a maximum at an end of the interval, where the score points out of
    # it, has no sign change: that end is the estimate
    b[(i_best == 0) & ~rising(np.full(T, lo))] = lo
    a[(i_best == _RHO_SCAN - 1) & rising(np.full(T, hi))] = hi
    # a column that already failed a check is not searched
    _close_brackets(a, b, np.flatnonzero((err == 0) & (np.nextafter(a, np.inf) < b)), score)
    rho = 0.5 * (a + b)

    resid = Y - rho * WY
    sigma2 = sum(resid * resid) / S
    err[(err == 0) & (sigma2 == 0.0)] = 5
    failed = np.flatnonzero(err)
    if failed.size:
        j = int(failed[0])
        raise _ColumnError(j, _FIT_ERRORS[err[j]])

    loglik = _logdet(rho, eig) - 0.5 * S * (np.log(2.0 * math.pi * sigma2) + 1.0)
    return rho, sigma2, loglik, resid, (lo, hi)


def sar_fit_ml(y: np.ndarray, graph: NeighborGraph) -> SarFit:
    """Fit rho by profile maximum likelihood on one slice.

    The profile log-likelihood ln|det(I - rho*W)| - (S/2) ln(RSS(rho)/S),
    RSS(rho) = ||y - rho*W y||^2, has the score S qc (rho* - rho) / RSS(rho)
    - sum_i Re[lambda_i / (1 - rho*lambda_i)] over the eigenvalues of W,
    with qc = ||W y||^2 and rho* = y'W y / qc.  The first maximum of a
    201-point scan of the admissible interval (trimmed by 1e-9 of its
    length at each end) brackets the score's root between its grid
    neighbors.  Safeguarded Newton steps close the bracket until its ends
    are adjacent doubles, each visited point moving an end by the sign of
    the score as bisection would, and rho is the rounded midpoint of those
    ends (``_close_brackets``).  A maximum at an end, where the score points
    outward (or is 0, as for W = 0, at the lower end), has no root: that
    end is rho.
    ``sar_residuals_field`` returns the same numbers for this column.
    """
    y = np.asarray(y, dtype=float)
    S = graph.n_sensors
    if y.shape != (S,):
        raise ValueError(f"y must have shape ({S},) to match the graph")
    rho, sigma2, loglik, resid, interval = _sar_fit_columns(y[:, None], graph)
    return SarFit(
        rho=float(rho[0]),
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
    """Fit the SAR model independently at every time column, as ``sar_fit_ml``.

    All columns are fit in one pass that shares the scan's log-determinant
    sums.  Returns the residual field (kind "residual") together with the
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
            f"SAR fit failed at time index {j} (t={field.timestamps[j]:.0f}): {exc}"
        ) from exc
    out = field.replace_values(resid, kind="residual")
    trace = SarTrace(timestamps=field.timestamps, rho=rho, sigma2=sigma2, loglik=loglik)
    return SarFieldResult(field=out, trace=trace)


@dataclass(frozen=True)
class VoronoiWeights:
    """Natural-neighbor weights of one query point over the layout sensors.

    ``pairs`` holds (sensor index, weight) with weights summing to 1.
    ``hull_fallback`` marks queries on or outside the layout's convex
    hull, where the query's Voronoi cell is unbounded, so the area
    construction is undefined and the nearest sensor takes all the weight.
    """

    pairs: tuple[tuple[int, float], ...]
    hull_fallback: bool = False

    def as_vector(self, n_sensors: int) -> np.ndarray:
        w = np.zeros(n_sensors)
        for i, wi in self.pairs:
            w[i] = wi
        return w


def _nearer(poly: list, p: list, r: list):
    """Yield the vertices of the part of a convex polygon nearer point
    ``p`` than point ``r``.

    ``poly`` lists (x, y) vertices in order around the polygon; it is cut
    at the bisector of p and r (Sutherland-Hodgman), each edge that
    crosses the bisector ending where it crosses.
    """
    # the near side: a*x + b*y <= c, with (a, b) = r - p and c its product
    # with the midpoint
    a, b = r[0] - p[0], r[1] - p[1]
    c = 0.5 * (a * (r[0] + p[0]) + b * (r[1] + p[1]))
    for (x0, y0), (x1, y1) in zip(poly[-1:] + poly[:-1], poly):
        f0, f1 = a * x0 + b * y0 - c, a * x1 + b * y1 - c
        if (f1 <= 0.0) != (f0 <= 0.0):
            t = f0 / (f0 - f1)
            yield x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        if f1 <= 0.0:
            yield x1, y1


def _strictly_inside_hull(xy: np.ndarray, q: np.ndarray, scale: float) -> bool:
    # imported here: scipy.spatial loads slower than the rest of the package,
    # and only crossval's interpolation baseline gets here
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(xy)
    except QhullError:
        # Qhull's own report runs to dozens of lines; the cause is one fact
        raise ValueError(
            f"degenerate layout geometry: the convex hull of {len(xy)} sensors "
            "has no interior"
        ) from None
    # hull equations give outward normals: inside means all of them negative
    vals = hull.equations[:, :2] @ q + hull.equations[:, 2]
    return bool(np.all(vals < -1e-9 * scale))


def voronoi_weights(layout: SensorLayout, query: tuple[float, float]) -> VoronoiWeights:
    """Sibson natural-neighbor weights of a query point.

    Inserting the query into the Voronoi diagram of the sensors creates a
    new cell; the weight of sensor i is the fraction of that cell's area
    stolen from sensor i's old cell.  One diagram of the sensors and the
    query is built in coordinates centred on the query; the region of the
    query's own point sizes a square about it, which the query's bisector
    with each sensor cuts down to the query's cell (``_nearer``).  Sensor
    i's stolen area is the part of that cell nearer i than any other
    natural neighbor of the query (a sensor whose cell borders the new one,
    so whose bisector cut it), cut out the same way and measured by one
    shoelace, so no area is a difference of two larger ones.  Only the
    natural neighbors steal a positive area.
    Queries on or outside the convex hull, where the query's cell is
    unbounded, fall back to the nearest sensor with ``hull_fallback`` set;
    a query sitting exactly on a sensor returns weight 1 on that sensor.
    A layout whose convex hull has no interior (collinear or coincident
    sensors) raises a one-line ``ValueError`` naming ``degenerate layout
    geometry``.
    """
    xy = layout.xy
    q = np.asarray(query, dtype=float)
    if q.shape != (2,) or not np.all(np.isfinite(q)):
        raise ValueError("query must be a finite (x, y) pair")
    span = max(float(np.ptp(xy[:, 0])), float(np.ptp(xy[:, 1])), 1.0)

    d_to_sensors = np.hypot(xy[:, 0] - q[0], xy[:, 1] - q[1])
    hit = int(np.argmin(d_to_sensors))
    if d_to_sensors[hit] <= 1e-9 * span:
        return VoronoiWeights(pairs=((hit, 1.0),))

    if not _strictly_inside_hull(xy, q, span):
        nearest = _nearest_first(layout, q)[1][0]
        return VoronoiWeights(pairs=((nearest, 1.0),), hull_fallback=True)

    # imported here for the reason _strictly_inside_hull gives
    from scipy.spatial import Voronoi

    # one diagram of the sensors and the query, centred on the query; the
    # query's region is bounded, since it is strictly inside the hull
    sites = (xy - q).tolist()
    vor = Voronoi(sites + [[0.0, 0.0]])
    region = vor.regions[vor.point_region[-1]]
    if not region or -1 in region:
        raise ValueError("natural-neighbor construction degenerated at this query")
    # a query a hair from a sensor is below Qhull's resolution: it places
    # that cell's vertices roughly and may miss a natural neighbor.  So its
    # cell only sizes a square about the query, and the bisectors of the
    # query with every sensor cut the square down to the cell
    r = 2.0 * float(np.abs(vor.vertices[region]).max())
    cell = [(-r, -r), (r, -r), (r, r), (-r, r)]
    # the natural neighbors are among the sensors whose bisector cut it
    near = []
    for i, site in enumerate(sites):
        cut = list(_nearer(cell, [0.0, 0.0], site))
        if cut != cell:
            near.append(i)
        cell = cut
    # sensor i's stolen area: the part of the cell nearer i than any other
    # natural neighbor, one shoelace over its vertices
    stolen = np.zeros(len(sites))
    for i in near:
        piece = cell
        for j in near:
            if j != i and piece:
                piece = list(_nearer(piece, sites[i], sites[j]))
        edges = zip(piece, piece[1:] + piece[:1])
        stolen[i] = 0.5 * abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges))
    total = float(stolen.sum())
    if total <= 0.0:
        raise ValueError("natural-neighbor construction degenerated at this query")
    w = stolen / total
    pairs = tuple((int(i), float(w[i])) for i in np.nonzero(w > 1e-12)[0])
    return VoronoiWeights(pairs=pairs)


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
    if field.mask is not None:
        field.subset(layout_train.ids).require_complete("natural_neighbor_predict")
    w = weights.as_vector(layout_train.n_sensors)
    return NaturalNeighborPrediction(values=w @ sub, weights=weights)
