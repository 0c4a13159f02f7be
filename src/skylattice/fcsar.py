"""Space-time autoregression on a sensor lattice.

Couples each sensor to its k nearest neighbors through lagged linear
transfer coefficients while the sensor's own memory follows a
functional-coefficient autoregression estimated by the spline-backfitted
kernel machinery in :mod:`.fcar`.  Estimation alternates the two pieces
on a fixed two-cycle schedule: neighbor coefficients by per-sensor least
squares, coefficient curves on the spatially-adjusted response, then one
refinement of each.  Every sensor uses one temporal spec, so the support
start is fixed for a call and a sensor's backfit depends only on its
series and its ordered neighbors' series.  A sensor's fcar design (its
spline factors and observed-u kernel sums) depends on its own series
alone, so each temporal stage is one solve on it: the backfit solves the
responses of all the neighbor sets it is given at once
(``fcar._solve``) and reads only their fitted values, and the final stage
of ``fit_fcsar`` keeps its fit (``fcar._solve_fit``), whose curves are
built when read.  ``fit_fcsar`` backfits each sensor with its one
neighbor set; cross-validation backfits each sensor once with every
neighbor set its training subsets give it.  Both build one design per
sensor and drop it before the next sensor's, so one design is alive at a
time.  No lattice fit builds a curve grid unless a caller reads a fit's
curves.  The module also provides the two factored pipelines (spatial fit
first or temporal fit first) and a diagnostic that returns all four
models' in-sample RMSEs on a common support; what a report makes of them
(the order ratio, the verdict, the parameter counts) is the command
line's rule, not this module's.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import SpatioTemporalField, _frozen_array
from .fcar import (
    FcarFit,
    FcarOptions,
    FcarSpec,
    _FitDesign,
    _fit_design,
    _solve,
    _solve_fit,
    fit_fcar,
)
from .spatial import (
    NeighborGraph,
    SarTrace,
    _check_same_layout,
    _nearest_first,
    sar_residuals_field,
)

SEPARABLE_ORDERS = ("space_then_time", "time_then_space")

# backfit cycles of the coupled fit: spatial stage, then temporal stage
_BACKFIT_CYCLES = 2


def _check_field(field: SpatioTemporalField, what: str) -> None:
    """The field checks of every lattice fit: complete and detrended."""
    field.require_complete(what)
    if field.kind == "raw":
        raise ValueError(f"{what} expects a detrended field; detrend the input first")


def _check_input(field: SpatioTemporalField, graph: NeighborGraph, what: str) -> None:
    """Checks every lattice fit runs: complete, detrended, on the graph's layout."""
    _check_field(field, what)
    _check_same_layout(field.layout, graph.layout, what)


@dataclass(frozen=True)
class FcsarSpec:
    """Model shape: neighbor graph, neighbor lag depth, temporal AR spec.

    ``n_neighbor_lags`` is the number of time lags at which neighbor values
    enter the spatial component (at least 1).  ``temporal`` is the
    :class:`~.fcar.FcarSpec` fitted at every sensor.
    """

    graph: NeighborGraph
    n_neighbor_lags: int
    temporal: FcarSpec

    def __post_init__(self):
        if self.n_neighbor_lags < 1:
            raise ValueError("n_neighbor_lags must be >= 1")

    @classmethod
    def uniform(
        cls, graph: NeighborGraph, n_neighbor_lags: int, fcar_spec: FcarSpec
    ) -> "FcsarSpec":
        """The constructor, kept under the name the acceptance suite calls."""
        return cls(graph, n_neighbor_lags, fcar_spec)

    @property
    def support_start(self) -> int:
        """First time index with all regressors defined (0-based)."""
        return max(self.n_neighbor_lags, self.temporal.max_lag)


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
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

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

    def __post_init__(self):
        for name in ("fitted_values", "residuals"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

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


@contextmanager
def _sensor_errors(sensor_id: str, x: np.ndarray, spec: FcarSpec, t_start: int):
    """Name the sensor and the time indices of its fit rows in a ValueError.

    An fcar fit fails while its design is built (too short, constant u,
    non-finite values, a degenerate spline block), so an error from a field
    points at the series that caused it.
    """
    try:
        yield
    except ValueError as exc:
        first = max(t_start, spec.max_lag)
        raise ValueError(
            f"sensor {sensor_id!r}, time indices {first}..{x.size - 1}: {exc}"
        ) from exc


def _fit_sensors(
    ids: Sequence[str], x: np.ndarray, spec: FcarSpec, options: Optional[FcarOptions],
    t0: int,
) -> tuple[FcarFit, ...]:
    """``fit_fcar`` of each row of the S x T matrix ``x`` from ``t0`` on.

    Each sensor's design serves this one fit and is dropped before the next.
    """
    fits = []
    for s, sensor in enumerate(ids):
        with _sensor_errors(sensor, x[s], spec, t0):
            fits.append(fit_fcar(x[s], spec, options, t_start=t0))
    return tuple(fits)


def _sensor_design(
    z: np.ndarray, s: int, sensor_id: str, spec: FcsarSpec, options: Optional[FcarOptions]
) -> _FitDesign:
    """The fcar design of row ``s`` of ``z`` from the support start, with
    a failure naming the sensor (:func:`_sensor_errors`)."""
    t0 = spec.support_start
    with _sensor_errors(sensor_id, z[s], spec.temporal, t0):
        return _fit_design(z[s], spec.temporal, options, t0)


def _backfit_sensor(
    z: np.ndarray,
    s: int,
    neighbor_sets: Sequence[Sequence[int]],
    spec: FcsarSpec,
    fcar_design: _FitDesign,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-cycle backfit of one sensor's neighbor-transfer coefficients,
    for each of its neighbor sets (rows of ``z``, nearest first).

    Each cycle fits a set's coefficients by least squares of the series net
    of that set's temporal fit (zero at first) on its lagged neighbor
    values; every cycle but the last then refits the temporal stage on the
    series net of each set's spatial component (zero before index b): one
    solve of all the sets' responses on ``fcar_design``, the sensor's
    design from ``spec.support_start``, whose fitted values are all the
    next cycle reads.  A set's results are those of a backfit of that set
    alone, bit for bit (:func:`.fcar._solve`).  Only rows ``s`` and the
    sets' neighbors of ``z`` are read, so a set's result is a function of
    those rows, the lag depth, the temporal spec and the options.

    Returns, one row per set, the (k, b) coefficient blocks, whether the
    neighbor design has full rank, and the length-T spatial rows.  A
    rank-deficient design (duplicated sensors, constant fields) takes the
    minimum-norm solution, and the caller reports the sensor.  A design
    never changes between cycles, so neither does its rank.
    """
    T = z.shape[1]
    b, t0 = spec.n_neighbor_lags, spec.support_start
    designs = [_neighbor_design(z, neighbors, b, t0) for neighbors in neighbor_sets]
    beta = np.empty((len(neighbor_sets), spec.graph.k, b))
    full_rank = np.empty(len(neighbor_sets), dtype=bool)
    temporal = np.zeros((len(neighbor_sets), T - t0))
    spatial = np.zeros((len(neighbor_sets), T))
    for cycle in range(_BACKFIT_CYCLES):
        for r, (neighbors, design) in enumerate(zip(neighbor_sets, designs)):
            coef, _, rank, _ = np.linalg.lstsq(design, z[s, t0:] - temporal[r], rcond=None)
            full_rank[r] = rank == design.shape[1]
            beta[r] = coef.reshape(len(neighbors), b)
            spatial[r, b:] = _transfer_sum(z, neighbors, beta[r], b)
        if cycle + 1 < _BACKFIT_CYCLES:
            temporal = _solve(fcar_design, z[s] - spatial).fitted
    return beta, full_rank, spatial


def _transfer_stage(
    field: SpatioTemporalField, spec: FcsarSpec, options: Optional[FcarOptions]
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], tuple[FcarFit, ...]]:
    """Check the inputs, then backfit every sensor of ``field`` and fit its
    final temporal stage.

    Returns the (S, k, b) coefficients, the S x T spatial component, the
    sensors with a rank-deficient neighbor design and each sensor's final
    temporal stage on its series net of its spatial row.  A sensor's
    design serves its backfit and its final stage and is dropped before
    the next sensor, so one design is alive at a time.
    """
    _fit_checks(field, spec)
    z = field.values
    ids = field.layout.ids
    beta = np.empty((len(ids), spec.graph.k, spec.n_neighbor_lags))
    spatial = np.empty(z.shape)
    deficient, finals = [], []
    for s, neighbors in enumerate(spec.graph.neighbors):
        design = _sensor_design(z, s, ids[s], spec, options)
        sensor_beta, full_rank, sensor_spatial = _backfit_sensor(z, s, (neighbors,), spec, design)
        beta[s], spatial[s] = sensor_beta[0], sensor_spatial[0]
        if not full_rank[0]:
            deficient.append(ids[s])
        finals.append(_solve_fit(design, z[s] - spatial[s]))
        # dropped before the next sensor's design is built
        del design
    return beta, spatial, tuple(deficient), tuple(finals)


def nan_padded(block: np.ndarray, n_times: int) -> np.ndarray:
    """S x n_times matrix holding ``block`` in its last columns, NaN before."""
    out = np.full((block.shape[0], n_times), np.nan)
    out[:, n_times - block.shape[1] :] = block
    return out


def _check_length(n_times: int, spec: FcsarSpec) -> None:
    """The length rule of a lattice fit on ``spec``: the rows from the
    support start must exceed each sensor's neighbor coefficients by two.
    It reads only the length, the lag depths and k, so it holds for every
    sensor subset fit under one spec alike."""
    n_rows = n_times - spec.support_start
    n_coef = spec.graph.k * spec.n_neighbor_lags
    if n_rows < n_coef + 2:
        raise ValueError(
            f"series too short: {n_times} time points leave {n_rows} usable rows "
            f"for {n_coef} neighbor coefficients per sensor"
        )


def _fit_checks(field: SpatioTemporalField, spec: FcsarSpec) -> None:
    """Check a field and spec for ``fit_fcsar``."""
    _check_input(field, spec.graph, "fit_fcsar")
    _check_length(field.n_times, spec)


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
    values.  Both temporal stages of a sensor are solves on one fcar
    design, built before its backfit and dropped after its final stage;
    the final stage's fits are returned, and their curves are built when
    read.  The schedule is fixed for determinism.

    Parameters
    ----------
    field : SpatioTemporalField
        Complete (no mask) detrended field on the graph's layout.
    spec : FcsarSpec
        Graph, neighbor lag depth, and the temporal spec of every sensor.
    options : FcarOptions, optional
        Passed to every temporal-stage fit.  A collinear neighbor design
        takes the minimum-norm coefficients, and its sensor is listed in
        ``FcsarFit.deficient_sensors``.
    freeze_beta_at_zero : bool
        Run zero backfit cycles: all transfer coefficients stay 0 and the
        single temporal stage sees the raw series, reproducing independent
        per-sensor fits exactly.

    Returns
    -------
    FcsarFit
    """
    z = field.values
    S, T = z.shape
    t0 = spec.support_start
    if freeze_beta_at_zero:
        _fit_checks(field, spec)
        beta = np.zeros((S, spec.graph.k, spec.n_neighbor_lags))
        spatial, deficient = np.zeros((S, T)), ()
        fcar_fits = _fit_sensors(field.layout.ids, z, spec.temporal, options, t0)
    else:
        beta, spatial, deficient, fcar_fits = _transfer_stage(field, spec, options)

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
        deficient_sensors=deficient,
    )


def fit_separable(
    field: SpatioTemporalField,
    order: str,
    sar_graph: NeighborGraph,
    fcar_spec: FcarSpec,
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
    _check_input(field, sar_graph, "fit_separable")
    z = field.values
    T = z.shape[1]
    t0 = fcar_spec.max_lag
    ids = field.layout.ids

    if order == "space_then_time":
        sar = sar_residuals_field(field, sar_graph)
        stage1 = sar.field.values
        fcar_fits = _fit_sensors(ids, stage1, fcar_spec, options, t0)
        final = np.stack([f.residuals for f in fcar_fits])
        first_rmse = _matrix_rmse(stage1, t0)
    else:
        fcar_fits = _fit_sensors(ids, z, fcar_spec, options, t0)
        stage1 = np.stack([f.residuals for f in fcar_fits])
        resid_field = SpatioTemporalField(
            field.layout, field.timestamps[t0:], stage1, "residual"
        )
        sar = sar_residuals_field(resid_field, sar_graph)
        final = sar.field.values
        first_rmse = _matrix_rmse(stage1, 0)

    fitted = nan_padded(z[:, t0:] - final, T)
    residuals = nan_padded(final, T)
    return SeparableFit(
        order=order,
        sar_trace=sar.trace,
        fcar_fits=fcar_fits,
        fitted_values=fitted,
        residuals=residuals,
        support_start=t0,
        first_stage_rmse=first_rmse,
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
    d, order = _nearest_first(field_train.layout, np.asarray(target_xy, dtype=float).reshape(2))
    return _predict_with_beta(fit.beta, field_train.values, range(field_train.n_sensors), d, order)


def _predict_with_beta(
    beta: np.ndarray, z: np.ndarray, rows: Sequence[int], dist: np.ndarray, order: Sequence[int]
) -> np.ndarray:
    """``predict_missing_sensor``'s rule on the training rows of a value matrix.

    Training sensor r is row ``rows[r]`` of ``z``, with coefficient block
    ``beta[r]`` (an (R, k, b) array) and distance ``dist[r]`` to the
    target; ``order`` lists r nearest first, distance ties broken by
    sensor id.  A fit on the training field passes its own values and
    every row; cross-validation passes the full field's values, the
    subset's training rows and the order it planned, so neither builds a
    training field.
    """
    scale = max(float(dist.max()), 1.0)
    if float(dist.min()) <= 1e-9 * scale:
        raise ValueError("target coincides with a training sensor")

    _, k, b = beta.shape
    nn = [rows[r] for r in order[:k]]
    donor = order[0]
    tied = len(order) > 1 and abs(dist[order[1]] - dist[donor]) <= 1e-9 * scale
    beta_bar = beta.mean(axis=0) if tied else beta[donor]

    pred = np.full(z.shape[1], np.nan)
    pred[b:] = _transfer_sum(z, nn, beta_bar, b)
    return pred


@dataclass(frozen=True)
class SeparabilityReport:
    """In-sample RMSEs of the four models on their common support."""

    st_rmse: float
    ts_rmse: float
    fcsar_b1_rmse: float
    fcsar_b2_rmse: float


def separability_diagnostic(
    field: SpatioTemporalField,
    sar_graph: NeighborGraph,
    fcar_spec: FcarSpec,
    options: Optional[FcarOptions] = None,
) -> SeparabilityReport:
    """Fit both factored pipelines and the coupled model, and score them.

    Fits space-then-time, time-then-space, and the coupled lattice model
    with neighbor lag depth 1 and 2, and returns all four in-sample RMSEs
    on the largest common support.  The statistics only: ``diagnose``
    turns them into its order ratio and verdict.
    """
    st = fit_separable(field, "space_then_time", sar_graph, fcar_spec, options)
    ts = fit_separable(field, "time_then_space", sar_graph, fcar_spec, options)
    f1 = fit_fcsar(field, FcsarSpec.uniform(sar_graph, 1, fcar_spec), options)
    f2 = fit_fcsar(field, FcsarSpec.uniform(sar_graph, 2, fcar_spec), options)
    start = max(
        st.support_start, ts.support_start, f1.support_start, f2.support_start
    )
    return SeparabilityReport(
        st_rmse=st.rmse(start),
        ts_rmse=ts.rmse(start),
        fcsar_b1_rmse=f1.rmse(start),
        fcsar_b2_rmse=f2.rmse(start),
    )
