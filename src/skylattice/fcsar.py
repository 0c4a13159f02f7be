"""Space-time autoregression on a sensor lattice.

Couples each sensor to its k nearest neighbors through lagged linear
transfer coefficients while the sensor's own memory follows a
functional-coefficient autoregression estimated by the spline-backfitted
kernel machinery in :mod:`.fcar`.  Estimation alternates the two pieces
on a fixed two-cycle schedule: neighbor coefficients by per-sensor least
squares, coefficient curves on the spatially-adjusted response, then one
refinement of each.  The module also provides the two factored pipelines
(spatial fit first or temporal fit first) and a diagnostic that compares
all four models' in-sample RMSE on a common support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .core import SensorLayout, SpatioTemporalField, _write_csv_rows
from .fcar import FcarFit, FcarOptions, FcarSpec, effective_params, fit_fcar
from .spatial import NeighborGraph, SarTrace, sar_residuals_field

__all__ = [
    "FcsarSpec",
    "FcsarFit",
    "SeparableFit",
    "SeparabilityReport",
    "fit_fcsar",
    "fit_separable",
    "predict_missing_sensor",
    "separability_diagnostic",
    "write_separability_csv",
]

SEPARABLE_ORDERS = ("space_then_time", "time_then_space")

# backfit cycles of the coupled fit: spatial stage, then temporal stage
_BACKFIT_CYCLES = 2


def _check_same_layout(a: SensorLayout, b: SensorLayout, what: str) -> None:
    if a.ids != b.ids or not np.array_equal(a.xy, b.xy):
        raise ValueError(f"{what}: field layout does not match the graph layout")


def _check_detrended(field: SpatioTemporalField, what: str) -> None:
    if field.kind == "raw":
        raise ValueError(f"{what} expects a detrended field; detrend the input first")


@dataclass(frozen=True)
class FcsarSpec:
    """Model shape: neighbor graph, neighbor lag depth, per-sensor AR specs.

    ``n_neighbor_lags`` is the number of time lags at which neighbor values
    enter the spatial component (at least 1).  ``sensor_specs`` holds one
    :class:`~.fcar.FcarSpec` per sensor, aligned with ``graph.layout.ids``.
    """

    graph: NeighborGraph
    n_neighbor_lags: int
    sensor_specs: tuple[FcarSpec, ...]

    def __post_init__(self):
        if self.n_neighbor_lags < 1:
            raise ValueError("n_neighbor_lags must be >= 1")
        if len(self.sensor_specs) != self.graph.layout.n_sensors:
            raise ValueError(
                f"need one temporal spec per sensor: got {len(self.sensor_specs)} "
                f"for {self.graph.layout.n_sensors} sensors"
            )

    @classmethod
    def uniform(
        cls, graph: NeighborGraph, n_neighbor_lags: int, fcar_spec: FcarSpec
    ) -> "FcsarSpec":
        """Same temporal spec at every sensor."""
        return cls(graph, n_neighbor_lags, (fcar_spec,) * graph.layout.n_sensors)

    @property
    def support_start(self) -> int:
        """First time index with all regressors defined (0-based)."""
        return max(
            self.n_neighbor_lags, max(s.max_lag for s in self.sensor_specs)
        )


def _matrix_rmse(residuals: np.ndarray, start: int) -> float:
    block = residuals[:, start:]
    return float(np.sqrt(np.mean(block**2)))


@dataclass(frozen=True)
class FcsarFit:
    """Fitted lattice model.

    ``beta[s, slot, w-1]`` is the transfer coefficient from the sensor in
    neighbor slot ``slot`` of sensor ``s`` (slots ordered nearest first, as
    in ``spec.graph.neighbors``) at time lag ``w``.  ``fitted_values`` and
    ``residuals`` are S x T matrices, NaN before ``support_start`` where
    lagged regressors are undefined; on the support they decompose the
    input exactly.  ``deficient_sensors`` names sensors whose neighbor
    design was rank deficient (coefficients are then the minimum-norm
    least-squares solution).
    """

    spec: FcsarSpec
    beta: np.ndarray
    fcar_fits: tuple[FcarFit, ...]
    fitted_values: np.ndarray
    residuals: np.ndarray
    support_start: int
    deficient_sensors: tuple[str, ...] = ()

    def __post_init__(self):
        S = self.spec.graph.layout.n_sensors
        shape = (S, self.spec.graph.k, self.spec.n_neighbor_lags)
        beta = np.asarray(self.beta, dtype=float)
        if beta.shape != shape:
            raise ValueError(f"beta must have shape {shape}, got {beta.shape}")
        for name in ("beta", "fitted_values", "residuals"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def total_params(self) -> float:
        """Neighbor coefficient count plus summed temporal-stage traces."""
        return float(self.beta.size) + float(
            sum(effective_params(f) for f in self.fcar_fits)
        )

    def rmse(self, from_t: Optional[int] = None) -> float:
        """In-sample RMSE from ``from_t`` (clamped to the support) onward."""
        start = self.support_start if from_t is None else max(from_t, self.support_start)
        return _matrix_rmse(self.residuals, start)


@dataclass(frozen=True)
class SeparableFit:
    """One factored pipeline: spatial and temporal stages run in sequence.

    ``order`` says which stage ran first; the second stage consumed the
    first stage's residuals.  ``sar_trace`` covers the time columns the
    spatial stage saw (all of them for space-first, the support columns
    for time-first).  RMSEs are over the support rows.
    """

    order: str
    sar_trace: SarTrace
    fcar_fits: tuple[FcarFit, ...]
    fitted_values: np.ndarray
    residuals: np.ndarray
    support_start: int
    first_stage_rmse: float
    combined_rmse: float

    def __post_init__(self):
        for name in ("fitted_values", "residuals"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def rmse(self, from_t: Optional[int] = None) -> float:
        start = self.support_start if from_t is None else max(from_t, self.support_start)
        return _matrix_rmse(self.residuals, start)


def _neighbor_design(
    z: np.ndarray, neighbors: Sequence[int], b: int, t0: int
) -> np.ndarray:
    """Lagged-neighbor regressor matrix for rows t0..T-1.

    Columns run neighbor-slot major, lag minor: (slot0 lag1, slot0 lag2,
    ..., slot1 lag1, ...), matching ``beta[s].ravel()``.
    """
    T = z.shape[1]
    cols = [z[nb, t0 - w : T - w] for nb in neighbors for w in range(1, b + 1)]
    return np.column_stack(cols)


def _transfer_sum(
    z: np.ndarray, neighbors: Sequence[int], coef: np.ndarray, b: int
) -> np.ndarray:
    """Neighbor-transfer values at times b..T-1 for one coefficient block.

    Accumulates ``coef[slot, w-1] * z[neighbor, t-w]`` neighbor-slot major,
    lag minor; fits and predictions share this order, so they agree bit
    for bit.
    """
    T = z.shape[1]
    acc = np.zeros(T - b)
    for slot, nb in enumerate(neighbors):
        for w in range(1, b + 1):
            acc += coef[slot, w - 1] * z[nb, b - w : T - w]
    return acc


def _backfit_sensor(
    z: np.ndarray,
    s: int,
    neighbors: Sequence[int],
    sensor_spec: FcarSpec,
    b: int,
    t0: int,
    options: Optional[FcarOptions],
    strict: bool,
    sensor_id: str,
) -> tuple[np.ndarray, bool, np.ndarray]:
    """Two-cycle backfit of one sensor's neighbor-transfer coefficients.

    Each cycle fits the coefficients by least squares of the series net of
    the temporal fit (zero at first) on the lagged neighbor values; every
    cycle but the last then refits the temporal stage on the series net of
    the spatial component (zero before index b).  Only rows ``s`` and
    ``neighbors`` of ``z`` are read, so the result is a function of the
    sensor, its ordered neighbors, ``t0``, ``b``, its spec and the options.

    Returns the (k, b) coefficient block, whether the neighbor design has
    full rank, and the length-T spatial row.  A rank-deficient design
    (duplicated sensors, constant fields) takes the minimum-norm solution;
    under ``strict`` it raises.  The design never changes between cycles,
    so neither does its rank.
    """
    T = z.shape[1]
    design = _neighbor_design(z, neighbors, b, t0)
    temporal = np.zeros(T - t0)
    spatial = np.zeros(T)
    for cycle in range(_BACKFIT_CYCLES):
        coef, _, rank, _ = np.linalg.lstsq(design, z[s, t0:] - temporal, rcond=None)
        full_rank = bool(rank == design.shape[1])
        if strict and not full_rank:
            raise ValueError(f"collinear neighbor regressors for sensor {sensor_id!r}")
        beta = coef.reshape(len(neighbors), b)
        spatial[b:] = _transfer_sum(z, neighbors, beta, b)
        if cycle + 1 < _BACKFIT_CYCLES:
            temporal = fit_fcar(
                z[s], sensor_spec, options, response=z[s] - spatial, t_start=t0
            ).fitted
    return beta, full_rank, spatial


def _temporal_stage(
    z: np.ndarray,
    spatial: np.ndarray,
    spec: FcsarSpec,
    options: Optional[FcarOptions],
    t0: int,
) -> tuple[FcarFit, ...]:
    """Per-sensor functional fits of the series net of the spatial component."""
    return tuple(
        fit_fcar(
            z[s], spec.sensor_specs[s], options, response=z[s] - spatial[s], t_start=t0
        )
        for s in range(z.shape[0])
    )


def nan_padded(block: np.ndarray, n_times: int) -> np.ndarray:
    """S x n_times matrix holding ``block`` in its last columns, NaN before."""
    out = np.full((block.shape[0], n_times), np.nan)
    out[:, n_times - block.shape[1] :] = block
    return out


def _fit_checks(
    field: SpatioTemporalField, spec: FcsarSpec, options: Optional[FcarOptions]
) -> tuple[int, bool]:
    """Check a field and spec for ``fit_fcsar``; return (t0, strict rank)."""
    field.require_complete("fit_fcsar")
    _check_detrended(field, "fit_fcsar")
    _check_same_layout(field.layout, spec.graph.layout, "fit_fcsar")
    T = field.n_times
    t0 = spec.support_start
    n_rows = T - t0
    n_coef = spec.graph.k * spec.n_neighbor_lags
    if n_rows < n_coef + 2:
        raise ValueError(
            f"series too short: {T} time points leave {n_rows} usable rows "
            f"for {n_coef} neighbor coefficients per sensor"
        )
    return t0, bool(options.strict_rank) if options is not None else False


def fit_fcsar(
    field: SpatioTemporalField,
    spec: FcsarSpec,
    options: Optional[FcarOptions] = None,
    *,
    freeze_beta_at_zero: bool = False,
) -> FcsarFit:
    """Fit the lattice model by a fixed two-cycle backfit per sensor.

    Each sensor is backfit on its own (``_backfit_sensor``).  Cycle one
    estimates the sensor's neighbor-transfer coefficients by ordinary
    least squares of its series on its lagged neighbor values, then fits
    the functional-coefficient stage with the spatially-adjusted series as
    response (regressors and the functional variable still come from the
    sensor's own series).  Cycle two re-estimates the transfer
    coefficients on the series minus that temporal fit.  A final temporal
    stage on the series net of the spatial component gives the fitted
    values.  The schedule is fixed for determinism.

    Parameters
    ----------
    field : SpatioTemporalField
        Complete (no mask) detrended field on the graph's layout.
    spec : FcsarSpec
        Graph, neighbor lag depth, and per-sensor temporal specs.
    options : FcarOptions, optional
        Passed to every temporal-stage fit.  ``options.strict_rank`` also
        makes a collinear neighbor design an error instead of a flag.
    freeze_beta_at_zero : bool
        Run zero backfit cycles: all transfer coefficients stay 0 and the
        single temporal stage sees the raw series, reproducing independent
        per-sensor fits exactly.

    Returns
    -------
    FcsarFit
    """
    t0, strict = _fit_checks(field, spec, options)
    z = field.values
    S, T = z.shape
    b = spec.n_neighbor_lags
    beta = np.zeros((S, spec.graph.k, b))
    spatial = np.zeros((S, T))
    deficient = []
    if not freeze_beta_at_zero:
        for s, sensor in enumerate(spec.graph.layout.ids):
            beta[s], full_rank, spatial[s] = _backfit_sensor(
                z, s, spec.graph.neighbors[s], spec.sensor_specs[s], b, t0,
                options, strict, sensor,
            )
            if not full_rank:
                deficient.append(sensor)
    fcar_fits = _temporal_stage(z, spatial, spec, options, t0)

    temporal = np.stack([f.fitted for f in fcar_fits])
    fitted = nan_padded(spatial[:, t0:] + temporal, T)
    residuals = nan_padded(np.stack([f.residuals for f in fcar_fits]), T)
    return FcsarFit(
        spec=spec,
        beta=beta,
        fcar_fits=fcar_fits,
        fitted_values=fitted,
        residuals=residuals,
        support_start=t0,
        deficient_sensors=tuple(deficient),
    )


def fit_separable(
    field: SpatioTemporalField,
    order: str,
    sar_graph: NeighborGraph,
    fcar_spec: Union[FcarSpec, Sequence[FcarSpec]],
    options: Optional[FcarOptions] = None,
) -> SeparableFit:
    """Fit one factored pipeline.

    ``space_then_time``: simultaneous-autoregression fit at every time
    column, then a per-sensor functional-coefficient fit on each sensor's
    residual series.  ``time_then_space``: per-sensor functional fits
    first, then the per-time spatial fit on the residual field.  The
    second stage always consumes the first stage's residuals.
    """
    if order not in SEPARABLE_ORDERS:
        raise ValueError(f"order must be one of {SEPARABLE_ORDERS}")
    field.require_complete("fit_separable")
    _check_detrended(field, "fit_separable")
    _check_same_layout(field.layout, sar_graph.layout, "fit_separable")
    z = field.values
    S, T = z.shape
    if isinstance(fcar_spec, FcarSpec):
        specs = (fcar_spec,) * S
    else:
        specs = tuple(fcar_spec)
        if len(specs) != S:
            raise ValueError("need one temporal spec per sensor")
    t0 = max(s.max_lag for s in specs)

    if order == "space_then_time":
        sar = sar_residuals_field(field, sar_graph)
        stage1 = sar.field.values
        fcar_fits = tuple(
            fit_fcar(stage1[s], specs[s], options, t_start=t0) for s in range(S)
        )
        final = np.stack([f.residuals for f in fcar_fits])
        trace = sar.trace
        first_rmse = _matrix_rmse(stage1, t0)
    else:
        fcar_fits = tuple(
            fit_fcar(z[s], specs[s], options, t_start=t0) for s in range(S)
        )
        stage1 = np.stack([f.residuals for f in fcar_fits])
        resid_field = SpatioTemporalField(
            field.layout, field.timestamps[t0:], stage1, "residual"
        )
        sar = sar_residuals_field(resid_field, sar_graph)
        final = sar.field.values
        trace = sar.trace
        first_rmse = float(np.sqrt(np.mean(stage1**2)))

    fitted = nan_padded(z[:, t0:] - final, T)
    residuals = nan_padded(final, T)
    return SeparableFit(
        order=order,
        sar_trace=trace,
        fcar_fits=fcar_fits,
        fitted_values=fitted,
        residuals=residuals,
        support_start=t0,
        first_stage_rmse=first_rmse,
        combined_rmse=float(np.sqrt(np.mean(final**2))),
    )


def predict_missing_sensor(
    fit: FcsarFit,
    field_train: SpatioTemporalField,
    target_id: str,
    target_xy: Sequence[float],
) -> np.ndarray:
    """Predict a held-out sensor's series from its nearest training sensors.

    The prediction at time t sums the lagged values of the target's k
    nearest training sensors (k from the fitted graph, nearest first)
    weighted by a borrowed coefficient block: the fitted coefficients of
    the training sensor closest to the target, or the mean coefficient
    block over all training sensors when the closest distance is tied.
    Entries before ``n_neighbor_lags`` are NaN (lagged values undefined).

    Parameters
    ----------
    fit : FcsarFit
        Model fitted on ``field_train``.
    field_train : SpatioTemporalField
        Training field; must be on the fitted graph's layout.
    target_id : str
        Identifier of the held-out sensor; must not occur in training.
    target_xy : (2,) sequence of float
        Coordinates of the held-out sensor.

    Returns
    -------
    numpy.ndarray
        Length-T series, NaN in the first ``n_neighbor_lags`` entries.
    """
    field_train.require_complete("predict_missing_sensor")
    _check_same_layout(field_train.layout, fit.spec.graph.layout, "predict_missing_sensor")
    if target_id in field_train.layout.ids:
        raise ValueError(f"target sensor {target_id!r} is part of the training layout")
    return _predict_with_beta(fit.beta, field_train, target_xy)


def _predict_with_beta(
    beta: np.ndarray, field_train: SpatioTemporalField, target_xy: Sequence[float]
) -> np.ndarray:
    """``predict_missing_sensor`` from a (S, k, b) coefficient array."""
    layout = field_train.layout
    xy = np.asarray(target_xy, dtype=float).reshape(2)
    d = np.hypot(layout.xy[:, 0] - xy[0], layout.xy[:, 1] - xy[1])
    scale = max(float(d.max()), 1.0)
    if float(d.min()) <= 1e-9 * scale:
        raise ValueError("target coincides with a training sensor")

    order = sorted(range(layout.n_sensors), key=lambda i: (d[i], layout.ids[i]))
    _, k, b = beta.shape
    nn = order[:k]
    donor = order[0]
    tied = len(order) > 1 and abs(d[order[1]] - d[donor]) <= 1e-9 * scale
    beta_bar = beta.mean(axis=0) if tied else beta[donor]

    pred = np.full(field_train.n_times, np.nan)
    pred[b:] = _transfer_sum(field_train.values, nn, beta_bar, b)
    return pred


@dataclass(frozen=True)
class SeparabilityReport:
    """Four-model RMSE comparison on a common support.

    ``order_ratio`` is max over min of the two factored pipelines'
    RMSEs; the verdict flags nonseparable structure when it exceeds the
    threshold.
    """

    label: str
    st_rmse: float
    ts_rmse: float
    fcsar_b1_rmse: float
    fcsar_b2_rmse: float
    order_ratio: float
    verdict: str


def separability_diagnostic(
    field: SpatioTemporalField,
    sar_graph: NeighborGraph,
    fcar_spec: FcarSpec,
    options: Optional[FcarOptions] = None,
    *,
    label: str = "field",
    threshold: float = 1.5,
) -> SeparabilityReport:
    """Compare both factored pipelines against the coupled model.

    Fits space-then-time, time-then-space, and the coupled lattice model
    with neighbor lag depth 1 and 2, computes all four in-sample RMSEs on
    the largest common support, and issues a verdict: when the factored
    orders disagree by more than ``threshold`` (ratio of their RMSEs) the
    field's space-time structure does not factor.
    """
    st = fit_separable(field, "space_then_time", sar_graph, fcar_spec, options)
    ts = fit_separable(field, "time_then_space", sar_graph, fcar_spec, options)
    f1 = fit_fcsar(field, FcsarSpec.uniform(sar_graph, 1, fcar_spec), options)
    f2 = fit_fcsar(field, FcsarSpec.uniform(sar_graph, 2, fcar_spec), options)
    start = max(
        st.support_start, ts.support_start, f1.support_start, f2.support_start
    )
    st_rmse = st.rmse(start)
    ts_rmse = ts.rmse(start)
    lo, hi = min(st_rmse, ts_rmse), max(st_rmse, ts_rmse)
    ratio = float("inf") if lo == 0.0 and hi > 0.0 else (hi / lo if lo > 0 else 1.0)
    verdict = (
        "separability not supported" if ratio > threshold else "separability plausible"
    )
    return SeparabilityReport(
        label=label,
        st_rmse=st_rmse,
        ts_rmse=ts_rmse,
        fcsar_b1_rmse=f1.rmse(start),
        fcsar_b2_rmse=f2.rmse(start),
        order_ratio=ratio,
        verdict=verdict,
    )


def write_separability_csv(
    reports: Sequence[SeparabilityReport], path
) -> None:
    """Serialize diagnostic reports, one row per field."""
    _write_csv_rows(
        path,
        ["label", "st_rmse", "ts_rmse", "fcsar_b1_rmse", "fcsar_b2_rmse"],
        (
            (r.label, r.st_rmse, r.ts_rmse, r.fcsar_b1_rmse, r.fcsar_b2_rmse)
            for r in reports
        ),
    )
