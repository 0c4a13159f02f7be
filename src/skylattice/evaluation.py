"""Fit metrics and leave-k-sensors-out cross-validation.

Metrics are deliberately literal: ``rmpe`` scales the summed squared
prediction errors by 1/(T*k) without taking an outer square root, so
despite the conventional name it lives on the squared scale.  The rooted
companion ``rmpe_rooted`` is provided for readers who want an error in
data units; every ratio and report in this package uses the unrooted
form consistently, so the choice cancels wherever two models are
compared under the same convention.

Cross-validation predicts each held-out sensor from a model fitted
without it: the neighbor graph is rebuilt on every training subset, and
nothing estimated with a held-out sensor's data leaks into its
prediction.  The lattice model's transfer coefficients are shared within
one ``crossval`` call.  A sensor's backfit reads only its own series, its
ordered neighbors' series, the support start t0 and the fixed spec and
options, so one training subset's coefficients for (sensor, ordered
neighbors, t0) equal any other's, bit for bit.  Each distinct backfit
therefore runs once per call and the results equal a from-scratch refit
of every subset.  Prediction reads only the coefficients, so the final
temporal stage of a full fit is never run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import SpatioTemporalField, _write_csv_rows
from .fcar import FcarOptions
from .fcsar import FcsarSpec, _backfit_sensor, _fit_checks, _predict_with_beta
# not called here: perfbench/selftest.py checks the tracer patches this binding
from .fcsar import fit_fcsar  # noqa: F401
from .spatial import build_neighbor_graph, natural_neighbor_predict

__all__ = [
    "SUBSET_CAP",
    "CROSSVAL_MODELS",
    "CrossvalPlan",
    "MetricsReport",
    "rmse",
    "rmpe",
    "rmpe_rooted",
    "adjusted_r2",
    "crossval",
    "rmpe_ratio",
    "write_window_rmse_csv",
    "write_rmpe_ratio_csv",
]

# Above this many candidate subsets the plan samples instead of
# enumerating; the seed is kept on the plan so runs are reproducible.
SUBSET_CAP = 2000

CROSSVAL_MODELS = ("fcsar", "natural_neighbor")


def rmse(observed, fitted, support_start: int = 0) -> float:
    """Root mean squared difference over all sensors and t >= support_start.

    Parameters
    ----------
    observed, fitted : array_like
        Matching arrays; the last axis is time.
    support_start : int
        First time index entering the mean.  Models with lagged terms
        have no fitted values before their support, so scoring starts
        where every compared model is defined.
    """
    obs = np.asarray(observed, dtype=float)
    fit = np.asarray(fitted, dtype=float)
    if obs.shape != fit.shape:
        raise ValueError(
            f"shape mismatch: observed {obs.shape} vs fitted {fit.shape}"
        )
    diff = obs[..., support_start:] - fit[..., support_start:]
    if diff.size == 0:
        raise ValueError("support_start leaves nothing to score")
    return float(np.sqrt(np.mean(diff * diff)))


def _as_index_rows(omega: Sequence[int], n_sensors: int) -> np.ndarray:
    rows = np.asarray(list(omega), dtype=int)
    if rows.size == 0:
        raise ValueError("omega is empty: no held-out sensors to score")
    if rows.min() < 0 or rows.max() >= n_sensors:
        raise ValueError(
            f"omega {tuple(omega)} out of range for {n_sensors} sensors"
        )
    if len(set(rows.tolist())) != rows.size:
        raise ValueError(f"omega {tuple(omega)} repeats a sensor")
    return rows


def rmpe(observed, predicted, omega: Sequence[int]) -> float:
    """Mean squared prediction error over the held-out sensors in omega.

    Computes sum_{s in omega} sum_t (predicted - observed)^2 / (T*k)
    with k = len(omega).  Note the absence of an outer square root: the
    value is on the squared scale.  ``rmpe_rooted`` takes the root.

    Parameters
    ----------
    observed, predicted : array_like, shape (S, T)
        predicted needs valid entries only on the rows in omega.
    omega : sequence of int
        Held-out sensor indices, unique, nonempty.
    """
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.ndim != 2 or obs.shape != pred.shape:
        raise ValueError(
            f"need matching (S, T) matrices, got {obs.shape} and {pred.shape}"
        )
    rows = _as_index_rows(omega, obs.shape[0])
    err = pred[rows] - obs[rows]
    return float(np.sum(err * err) / err.size)


def rmpe_rooted(observed, predicted, omega: Sequence[int]) -> float:
    """Square root of ``rmpe``: prediction error in data units."""
    return math.sqrt(rmpe(observed, predicted, omega))


def adjusted_r2(observed, fitted, nu_fit: float) -> float:
    """Coefficient of determination penalized by the effective parameter count.

    1 - [SS_fit / (n - nu_fit)] / [SS_total / n] with n the total cell
    count, SS_fit the summed squared residuals and SS_total the summed
    squared deviations from the grand mean.  A perfect fit returns
    exactly 1 regardless of nu_fit.
    """
    obs = np.asarray(observed, dtype=float)
    fit = np.asarray(fitted, dtype=float)
    if obs.shape != fit.shape:
        raise ValueError(
            f"shape mismatch: observed {obs.shape} vs fitted {fit.shape}"
        )
    n = obs.size
    if not nu_fit < n:
        raise ValueError(
            f"effective parameter count {nu_fit} must be below the {n} cells"
        )
    ss_fit = float(np.sum((fit - obs) ** 2))
    grand_mean = float(np.mean(obs))
    ss_total = float(np.sum((obs - grand_mean) ** 2))
    if ss_total == 0.0:
        raise ValueError("constant field: total sum of squares is zero")
    if ss_fit == 0.0:
        return 1.0
    return 1.0 - (ss_fit / (n - nu_fit)) / (ss_total / n)


@dataclass(frozen=True)
class CrossvalPlan:
    """The sensor subsets a cross-validation run holds out.

    combinations are index subsets into the field's layout, each of size
    k, unique, sorted within a subset.  ``sampled`` records that the
    candidate space exceeded the cap and the plan is a seeded random
    sample rather than the full enumeration.
    """

    k: int
    combinations: tuple[tuple[int, ...], ...]
    sampled: bool = False
    seed: Optional[int] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        combos = []
        for omega in self.combinations:
            subset = tuple(sorted(int(i) for i in omega))
            if len(subset) != self.k or len(set(subset)) != self.k:
                raise ValueError(
                    f"subset {tuple(omega)} must hold {self.k} distinct sensors"
                )
            if subset[0] < 0:
                raise ValueError(f"negative sensor index in {tuple(omega)}")
            combos.append(subset)
        if not combos:
            raise ValueError("plan has no subsets")
        if len(set(combos)) != len(combos):
            raise ValueError("plan repeats a subset")
        object.__setattr__(self, "combinations", tuple(combos))

    @classmethod
    def all_subsets(
        cls, n_sensors: int, k: int, *, cap: int = SUBSET_CAP, seed: int = 0
    ) -> "CrossvalPlan":
        """Every size-k subset of range(n_sensors), or a seeded sample.

        Enumerates all C(n_sensors, k) subsets when that count is within
        ``cap``; beyond the cap, draws ``cap`` distinct subsets with a
        seeded generator and marks the plan as sampled.
        """
        if not 1 <= k < n_sensors:
            raise ValueError(f"need 1 <= k < n_sensors, got k={k}, S={n_sensors}")
        total = math.comb(n_sensors, k)
        if total <= cap:
            combos = tuple(itertools.combinations(range(n_sensors), k))
            return cls(k=k, combinations=combos)
        rng = np.random.default_rng(seed)
        chosen: set[tuple[int, ...]] = set()
        while len(chosen) < cap:
            pick = rng.choice(n_sensors, size=k, replace=False)
            chosen.add(tuple(sorted(int(i) for i in pick)))
        return cls(
            k=k, combinations=tuple(sorted(chosen)), sampled=True, seed=seed
        )


@dataclass(frozen=True)
class MetricsReport:
    """Cross-validation outcome for one model on one plan.

    ``rmpe_values`` line up with ``plan.combinations``.
    """

    model: str
    plan: CrossvalPlan
    rmpe_values: tuple[float, ...]
    mean_rmpe: float

    def __post_init__(self):
        values = tuple(float(v) for v in self.rmpe_values)
        if len(values) != len(self.plan.combinations):
            raise ValueError(
                f"{len(values)} RMPE values for "
                f"{len(self.plan.combinations)} plan subsets"
            )
        object.__setattr__(self, "rmpe_values", values)
        if not np.all(np.isfinite(list(values) + [self.mean_rmpe])):
            raise ValueError("metrics must be finite")


# (full-layout sensor index, ordered full-layout neighbor indices, t0)
BackfitKey = tuple[int, tuple[int, ...], int]


def _fcsar_holdout_predictions(
    field: SpatioTemporalField,
    omega: tuple[int, ...],
    spec: FcsarSpec,
    options: Optional[FcarOptions],
    backfits: dict[BackfitKey, np.ndarray],
) -> np.ndarray:
    """Fit on the remaining sensors and predict each held-out one.

    Runs every check ``fit_fcsar`` runs on the training field, then takes
    each training sensor's coefficients from ``backfits``, backfitting
    only the keys it does not hold yet.  ``backfits`` must belong to one
    ``field``, ``spec`` and ``options``: its keys do not name them.
    """
    layout = field.layout
    held = set(omega)
    train_rows = [i for i in range(layout.n_sensors) if i not in held]
    train_field = field.subset([layout.ids[i] for i in train_rows])
    graph = build_neighbor_graph(train_field.layout, spec.graph.k)
    b = spec.n_neighbor_lags
    sub_spec = FcsarSpec(
        graph=graph,
        n_neighbor_lags=b,
        sensor_specs=tuple(spec.sensor_specs[i] for i in train_rows),
    )
    t0, strict = _fit_checks(train_field, sub_spec, options)
    beta = np.empty((len(train_rows), graph.k, b))
    for j, i in enumerate(train_rows):
        neighbors = graph.neighbors[j]
        key = (i, tuple(train_rows[n] for n in neighbors), t0)
        if key not in backfits:
            backfits[key], _, _ = _backfit_sensor(
                train_field.values, j, neighbors, sub_spec.sensor_specs[j], b,
                t0, options, strict, train_field.layout.ids[j],
            )
        beta[j] = backfits[key]
    preds = np.empty((len(omega), field.n_times))
    for row, i in enumerate(omega):
        preds[row] = _predict_with_beta(beta, train_field, layout.xy[i])
    return preds


def _interp_holdout_predictions(
    field: SpatioTemporalField, omega: tuple[int, ...]
) -> np.ndarray:
    layout = field.layout
    held = set(omega)
    train_ids = tuple(
        sid for i, sid in enumerate(layout.ids) if i not in held
    )
    train_layout = layout.subset(train_ids)
    preds = np.empty((len(omega), field.n_times))
    for row, i in enumerate(omega):
        preds[row] = natural_neighbor_predict(
            field, train_layout, layout.ids[i]
        ).values
    return preds


def crossval(
    field: SpatioTemporalField,
    plan: CrossvalPlan,
    model: str,
    spec: Optional[FcsarSpec] = None,
    options: Optional[FcarOptions] = None,
    *,
    eval_start: Optional[int] = None,
) -> MetricsReport:
    """Leave-k-sensors-out cross-validation over the subsets in plan.

    For each subset the model is fitted on the remaining sensors and each
    held-out sensor is predicted one at a time from that fit.  For fcsar
    the call shares backfitted transfer coefficients across its subsets
    in one dict keyed by (sensor, ordered neighbors, t0) in full-layout
    indices.  The field, spec and options are fixed within the call, so a
    key pins the backfit's data and the values equal a from-scratch refit
    of every subset, bit for bit.  The dict lives for this call only.

    Parameters
    ----------
    field : SpatioTemporalField
        Complete (unmasked) field; prefer a detrended one for fcsar.
    plan : CrossvalPlan
        Index subsets to hold out; validated against the field's layout.
    model : {"fcsar", "natural_neighbor"}
        fcsar fits the lattice autoregression's transfer coefficients
        (``spec`` required, used as the template for neighbor count, lag
        depth, and per-sensor temporal specs; the graph is rebuilt per
        training subset).
        natural_neighbor interpolates from the training layout.
    eval_start : int, optional
        First time index scored.  Defaults to the neighbor-lag depth for
        fcsar (earlier predictions are undefined) and 0 for the
        interpolator.  Pass the same value for both models when building
        a ratio so they are scored on identical targets.

    Returns
    -------
    MetricsReport
        One RMPE per subset, in plan order, plus their mean.
    """
    if model not in CROSSVAL_MODELS:
        raise ValueError(f"model must be one of {CROSSVAL_MODELS}, got {model!r}")
    field.require_complete("crossval")
    S = field.n_sensors
    if S - plan.k < 3:
        raise ValueError(
            f"holding out {plan.k} of {S} sensors leaves too few to refit"
        )
    for omega in plan.combinations:
        _as_index_rows(omega, S)
    if model == "fcsar":
        if spec is None:
            raise ValueError("fcsar cross-validation needs a template spec")
        start = spec.n_neighbor_lags if eval_start is None else eval_start
        if start < spec.n_neighbor_lags:
            raise ValueError(
                "eval_start must be at least the neighbor-lag depth; "
                f"predictions before t={spec.n_neighbor_lags} are undefined"
            )
    else:
        start = 0 if eval_start is None else eval_start
    if not 0 <= start < field.n_times:
        raise ValueError(f"eval_start {start} outside the series")

    values = []
    obs = field.values[:, start:]
    backfits: dict[BackfitKey, np.ndarray] = {}
    for omega in plan.combinations:
        try:
            if model == "fcsar":
                preds = _fcsar_holdout_predictions(
                    field, omega, spec, options, backfits
                )
            else:
                preds = _interp_holdout_predictions(field, omega)
        except Exception as exc:
            held_ids = tuple(field.layout.ids[i] for i in omega)
            raise RuntimeError(
                f"refit failed with sensors {held_ids} held out: {exc}"
            ) from exc
        pred_matrix = np.full((S, field.n_times), np.nan)
        pred_matrix[list(omega)] = preds
        values.append(rmpe(obs, pred_matrix[:, start:], omega))
    return MetricsReport(
        model=model,
        plan=plan,
        rmpe_values=tuple(values),
        mean_rmpe=float(np.mean(values)),
    )


def rmpe_ratio(report_model: MetricsReport, report_interp: MetricsReport) -> float:
    """Mean RMPE of the model over mean RMPE of the interpolation baseline.

    Below 1 means the model predicts held-out sensors better than the
    baseline.  Both reports must come from the same plan.
    """
    if report_model.plan != report_interp.plan:
        raise ValueError("reports come from different cross-validation plans")
    if report_interp.mean_rmpe == 0.0:
        raise ZeroDivisionError("baseline mean RMPE is zero")
    return report_model.mean_rmpe / report_interp.mean_rmpe


def write_window_rmse_csv(rows: Iterable[tuple], path) -> None:
    """Averaging-window sweep, rows (label, window, rmse, adj_r2)."""
    _write_csv_rows(path, ["label", "window", "rmse", "adj_r2"], rows)


def write_rmpe_ratio_csv(rows: Iterable[tuple], path) -> None:
    """Model-versus-baseline ratios, rows (label, k, ratio)."""
    _write_csv_rows(path, ["label", "k", "ratio"], rows)
