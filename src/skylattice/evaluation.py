"""Fit metrics and leave-k-sensors-out cross-validation.

Metrics are deliberately literal: ``rmpe`` scales the summed squared
prediction errors by 1/(T*k) without taking an outer square root, so
despite the conventional name it lives on the squared scale.  Every ratio
and report in this package uses this unrooted form, so the choice cancels
wherever two models are compared under the same convention.

Cross-validation predicts each held-out sensor from a model fitted
without it: every training subset gets the neighbor sets a graph built on
its own layout has, and nothing estimated with a held-out sensor's data
leaks into its prediction.  The lattice model's transfer coefficients are
shared within one ``crossval`` call.  A sensor's backfit reads only its
own series, its ordered neighbors' series and the fixed spec and options,
and one temporal spec fixes the support start t0 for the call, so one
training subset's coefficients for (sensor, ordered neighbors) equal any
other's, bit for bit.  The call therefore plans first: every subset's
neighbor sets come off one nearest-first order per sensor.  Then each
sensor is backfit once, for all of its neighbor sets together, on one
temporal-stage design that is dropped before the next sensor's is built,
so one design is alive at a time, and the results equal a from-scratch
refit of every subset.  Prediction reads only the coefficients and the
full field's rows at the subset's training indices, in the planned
order, so no training field is built; the final temporal stage of a full
fit is never run, and a backfit's temporal stage reads only its fitted
values; curves are built when read, so no coefficient curve, grid or
band is built.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import SpatioTemporalField
from .fcar import FcarOptions, default_knot_count
from .fcsar import (
    FcsarSpec,
    _backfit_sensor,
    _check_field,
    _check_length,
    _predict_with_beta,
    _sensor_design,
)
# not called here: perfbench/selftest.py checks the tracer patches this binding
from .fcsar import fit_fcsar  # noqa: F401
from .spatial import _check_neighbor_count, _nearest_first, natural_neighbor_predict

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
    value is on the squared scale.

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


class _SharedBackfits:
    """The fcsar backfits of one ``crossval`` call, shared by its subsets.

    Built after the rules every subset's fit runs alike: the neighbor
    count and the field's kind.  Planned first, from one neighbor order
    per sensor: every other sensor of the full layout, nearest first, ties
    broken by id (``spatial._nearest_first``).  A training subset's
    neighbors of sensor s are the first k entries of s's order that are
    not held out, the same distances and ids ``build_neighbor_graph``
    sorts on the training layout, so the same sets.  Each sensor's distinct neighbor sets are
    kept in the order the subsets first need them, and each subset's sets
    as a tuple of (sensor, neighbor set) keys, in full-field indices.

    ``predictions(omega)`` backfits every training sensor of ``omega`` that
    no earlier subset needed: one fcar design, one ``fcsar._backfit_sensor``
    for all of the sensor's neighbor sets at once, and the design dropped
    before the next sensor's, so one design is alive at a time.  Only the
    coefficient blocks are kept.  A backfit reads only its sensor's and
    neighbors' rows (full-field and training-field rows hold the same
    values), so each equals the one a from-scratch fit of the training
    field runs, bit for bit.  A sensor fails only while its design is
    built, which reads its own series alone, so a failure arises in the
    first subset that needs the sensor, as it does in a from-scratch refit
    of every subset in plan order.
    """

    def __init__(
        self,
        field: SpatioTemporalField,
        plan: CrossvalPlan,
        spec: FcsarSpec,
        options: Optional[FcarOptions],
    ):
        # a training subset's fit checks its graph's k and the field's
        # kind: every subset has S - k sensors and the field's kind
        _check_neighbor_count(spec.graph.k, field.n_sensors - plan.k)
        _check_field(field, "fit_fcsar")
        self.field, self.spec, self.options = field, spec, options
        layout = field.layout
        nearest = [_nearest_first(layout, layout.xy[i]) for i in range(layout.n_sensors)]
        self.dist = [dist for dist, _ in nearest]
        self.orders = orders = [
            [j for j in order if j != i] for i, (_, order) in enumerate(nearest)
        ]
        k = spec.graph.k
        self.subsets: dict[tuple[int, ...], tuple[tuple[int, tuple[int, ...]], ...]] = {}
        self.pending: dict[int, dict[tuple[int, ...], None]] = {}
        for omega in plan.combinations:
            held = set(omega)
            keys = tuple(
                (i, tuple(itertools.islice((j for j in order if j not in held), k)))
                for i, order in enumerate(orders)
                if i not in held
            )
            self.subsets[omega] = keys
            for i, neighbors in keys:
                self.pending.setdefault(i, {})[neighbors] = None
        self.beta: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    def _backfit(self, s: int) -> None:
        z = self.field.values
        neighbor_sets = tuple(self.pending.pop(s))
        design = _sensor_design(z, s, self.field.layout.ids[s], self.spec, self.options)
        beta, _, _ = _backfit_sensor(z, s, neighbor_sets, self.spec, design)
        for neighbors, block in zip(neighbor_sets, beta):
            self.beta[s, neighbors] = block

    def predictions(self, omega: tuple[int, ...]) -> np.ndarray:
        """Fit on the remaining sensors and predict each held-out one.

        Each prediction reads the full field's rows at the subset's
        training indices, and its nearest-first order is the held-out
        sensor's planned order with the other held-out sensors dropped:
        the distances and ids a training layout sorts on, so the same
        order, and no training field is built.
        """
        keys = self.subsets[omega]
        for s, _ in keys:
            if s in self.pending:
                self._backfit(s)
        beta = np.array([self.beta[key] for key in keys])
        rows = [s for s, _ in keys]
        position = {s: r for r, s in enumerate(rows)}
        preds = np.empty((len(omega), self.field.n_times))
        for row, i in enumerate(omega):
            order = [position[j] for j in self.orders[i] if j in position]
            dist = self.dist[i][rows]
            preds[row] = _predict_with_beta(beta, self.field.values, rows, dist, order)
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


@contextmanager
def _subset_errors(field: SpatioTemporalField, omega: tuple[int, ...], step: str):
    """Name the step that failed and the held-out sensors of its subset."""
    try:
        yield
    except Exception as exc:
        held_ids = tuple(field.layout.ids[i] for i in omega)
        raise RuntimeError(f"{step} failed with sensors {held_ids} held out: {exc}") from exc


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
    the call plans first: each subset's neighbor sets are read off one
    nearest-first order per sensor of the full layout, the sets a graph
    built on the subset's layout has.  The length, knot-count, neighbor
    count and field rules hold for every subset alike, so they run once,
    before any subset.  Each sensor is then backfit once, when the first
    subset needs it, for all of its neighbor sets in one batch on one fcar
    design (spline factors and observed-u kernel Gram sums) that is
    dropped before the next sensor's is built: one design is alive at a
    time.  The field, spec and options are fixed within the call, so a
    (sensor, neighbor set) pins the backfit's data, and every value equals
    a from-scratch refit of each subset, bit for bit; past the length and
    knot-count rules, so does the message of the first failure in plan
    order.  The coefficients live for this call only.

    Parameters
    ----------
    field : SpatioTemporalField
        Complete (unmasked) field; prefer a detrended one for fcsar.
    plan : CrossvalPlan
        Index subsets to hold out; validated against the field's layout.
    model : {"fcsar", "natural_neighbor"}
        fcsar fits the lattice autoregression's transfer coefficients
        (``spec`` required, used as the template for neighbor count, lag
        depth, and temporal spec; each training subset gets the
        neighbor sets of a graph built on its own layout).
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
        # every training subset shares the length, the lag depths, k and
        # the options, so these rules run once, and their errors blame no
        # held-out sensor
        _check_length(field.n_times, spec)
        if options is None or options.n_knots is None:
            default_knot_count(field.n_times)
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

    if model == "fcsar":
        step = "refit"
        # the plan checks what every subset's fit checks alike, so a
        # failure there is the first subset's
        with _subset_errors(field, plan.combinations[0], step):
            predict = _SharedBackfits(field, plan, spec, options).predictions
    else:
        step = "interpolation"

        def predict(omega):
            return _interp_holdout_predictions(field, omega)

    values = []
    obs = field.values[:, start:]
    for omega in plan.combinations:
        with _subset_errors(field, omega, step):
            preds = predict(omega)
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
