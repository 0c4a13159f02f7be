"""Spatial lattice model and natural-neighbor interpolation.

Two spatial tools share this module.  The first is a simultaneous
autoregressive (SAR) model on the sensor lattice, y = rho * W y + delta,
with a k-nearest-neighbor weight matrix; rho is fit by maximizing the
Gaussian profile log-likelihood, whose determinant term comes from the
eigenvalues of W (computed once per graph).  The second is Sibson
natural-neighbor interpolation: a query point's prediction is the
area-weighted average of the sensors whose Voronoi cells the query would
steal area from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np
from scipy.spatial import ConvexHull, QhullError, Voronoi

from .core import SensorLayout, SpatioTemporalField

_WEIGHT_SCHEMES = ("row", "binary")

# golden-section tolerance on rho, and the number of admissible-interval
# scan points used to bracket the maximum before the search
_RHO_TOL = 1e-6
_RHO_SCAN = 201


@dataclass(frozen=True)
class NeighborGraph:
    """k-nearest-neighbor structure and its spatial weight matrix.

    ``neighbors[i]`` lists the k nearest sensors of sensor i, nearest
    first, distance ties broken by sensor id so construction is
    deterministic.  ``W`` is row-standardized (each neighbor gets 1/k) or
    binary 0/1 depending on ``scheme``.  The eigenvalues of W are computed
    at construction and reused by every SAR fit on this graph.
    """

    layout: SensorLayout
    k: int
    neighbors: tuple[tuple[int, ...], ...]
    W: np.ndarray
    scheme: str = "row"
    eigenvalues: np.ndarray = dc_field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        W.flags.writeable = False
        object.__setattr__(self, "W", W)
        eig = self.eigenvalues
        if eig is None:
            eig = np.linalg.eigvals(W)
        eig = np.asarray(eig)
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)

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


def build_neighbor_graph(
    layout: SensorLayout, k: int, *, scheme: str = "row"
) -> NeighborGraph:
    """k nearest neighbors per sensor by Euclidean distance.

    Ties at equal distance are broken by sensor id, so the graph is a pure
    function of the layout.  ``scheme="row"`` gives each neighbor weight
    1/k (rows of W sum to 1); ``scheme="binary"`` gives weight 1.
    """
    S = layout.n_sensors
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= S:
        raise ValueError(f"k={k} needs at least k+1={k + 1} sensors, have {S}")
    if scheme not in _WEIGHT_SCHEMES:
        raise ValueError(f"scheme must be one of {_WEIGHT_SCHEMES}")
    xy = layout.xy
    neighbors = []
    W = np.zeros((S, S))
    for i in range(S):
        dist = np.hypot(xy[:, 0] - xy[i, 0], xy[:, 1] - xy[i, 1])
        order = sorted(
            (j for j in range(S) if j != i),
            key=lambda j: (dist[j], layout.ids[j]),
        )
        chosen = tuple(order[:k])
        neighbors.append(chosen)
        W[i, list(chosen)] = 1.0 / k if scheme == "row" else 1.0
    return NeighborGraph(
        layout=layout, k=k, neighbors=tuple(neighbors), W=W, scheme=scheme
    )


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
        r = np.asarray(self.residuals, dtype=float)
        r.flags.writeable = False
        object.__setattr__(self, "residuals", r)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def sar_fit_ml(y: np.ndarray, graph: NeighborGraph) -> SarFit:
    """Fit rho by profile maximum likelihood on one slice.

    The profile log-likelihood ln|det(I - rho*W)| - (S/2) ln(RSS(rho)/S)
    with RSS(rho) = ||y - rho*W y||^2 is quadratic in rho apart from the
    determinant term, so each evaluation costs only the eigenvalue sum.
    A 201-point scan of the admissible interval brackets the maximum and
    golden-section search refines it to 1e-6; the reported rho is the best
    value ever evaluated, so it is never worse than the scan.
    """
    y = np.asarray(y, dtype=float)
    S = graph.n_sensors
    if y.shape != (S,):
        raise ValueError(f"y must have shape ({S},) to match the graph")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    wy = graph.W @ y
    qa = float(y @ y)
    qb = float(y @ wy)
    qc = float(wy @ wy)
    if qa == 0.0:
        raise ValueError("profile likelihood is not finite: y is identically zero")
    eig = graph.eigenvalues
    lo, hi = graph.rho_interval
    margin = 1e-9 * (hi - lo)
    lo, hi = lo + margin, hi - margin
    if not hi > lo:
        raise ValueError("admissible rho interval collapsed")

    best = {"rho": 0.0, "val": -np.inf}

    def profile(rho: float) -> float:
        rss = qa - 2.0 * rho * qb + rho * rho * qc
        if rss <= 0.0 or not np.isfinite(rss):
            return -np.inf
        val = float(np.sum(np.log(np.abs(1.0 - rho * eig)))) - 0.5 * S * math.log(
            rss / S
        )
        if val > best["val"]:
            best["rho"], best["val"] = rho, val
        return val

    grid = np.linspace(lo, hi, _RHO_SCAN)
    vals = [profile(r) for r in grid]
    i_best = int(np.argmax(vals))
    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, _RHO_SCAN - 1)]
    profile(_golden_max(profile, a, b, _RHO_TOL))
    rho_hat = best["rho"]
    if not np.isfinite(best["val"]):
        raise ValueError("profile likelihood is not finite on the admissible interval")

    resid = y - rho_hat * wy
    rss = float(resid @ resid)
    sigma2 = rss / S
    logdet = float(np.sum(np.log(np.abs(1.0 - rho_hat * eig))))
    loglik = logdet - 0.5 * S * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return SarFit(
        rho=float(rho_hat),
        W=graph.W,
        sigma2=sigma2,
        residuals=resid,
        loglik=loglik,
        rho_interval=(lo, hi),
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
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SarFieldResult:
    """Residual field from per-time SAR fits plus the fit trace."""

    field: SpatioTemporalField
    trace: SarTrace


def sar_residuals_field(
    field: SpatioTemporalField, graph: NeighborGraph
) -> SarFieldResult:
    """Fit the SAR model independently at every time column.

    Returns the residual field (kind "residual") together with the
    per-time trace of rho, sigma2, and log-likelihood.  A column that
    cannot be fit aborts the whole call, naming its time index.
    """
    field.require_complete("per-time SAR fitting")
    if field.layout.ids != graph.layout.ids:
        raise ValueError("field and neighbor graph use different layouts")
    T = field.n_times
    resid = np.empty_like(field.values)
    rho = np.empty(T)
    sigma2 = np.empty(T)
    loglik = np.empty(T)
    for j in range(T):
        try:
            fit = sar_fit_ml(field.values[:, j], graph)
        except ValueError as exc:
            raise ValueError(
                f"SAR fit failed at time index {j} "
                f"(t={field.timestamps[j]:.0f}): {exc}"
            ) from exc
        resid[:, j] = fit.residuals
        rho[j] = fit.rho
        sigma2[j] = fit.sigma2
        loglik[j] = fit.loglik
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


def _nearest_sensor(layout: SensorLayout, q: np.ndarray) -> int:
    dist = np.hypot(layout.xy[:, 0] - q[0], layout.xy[:, 1] - q[1])
    return min(range(layout.n_sensors), key=lambda i: (dist[i], layout.ids[i]))


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
            pairs=((_nearest_sensor(layout, q), 1.0),),
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
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


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
