"""Metric oracles and the leave-k-sensors-out cross-validation driver."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylattice import evaluation
from skylattice.cli import main as cli_main
from skylattice.core import (
    SensorLayout,
    SpatioTemporalField,
    grid_layout,
    ingest_field,
    read_layout_csv,
    read_measurements_csv,
    time_average,
)
from skylattice.evaluation import (
    CrossvalPlan,
    MetricsReport,
    adjusted_r2,
    crossval,
    rmpe,
    rmpe_ratio,
    rmse,
)
from skylattice.fcar import FcarOptions, FcarSpec, effective_params
from skylattice.fcsar import FcsarSpec, fit_fcsar, predict_missing_sensor
from skylattice.simulation import FieldSimConfig, simulate_field
from skylattice.spatial import build_neighbor_graph

LIGHT = FcarOptions(n_knots=8)


def naive_rmse(observed, fitted, start):
    total = 0.0
    count = 0
    for s in range(observed.shape[0]):
        for t in range(start, observed.shape[1]):
            total += (observed[s, t] - fitted[s, t]) ** 2
            count += 1
    return math.sqrt(total / count)


def naive_rmpe(observed, predicted, omega):
    total = 0.0
    T = observed.shape[1]
    for s in omega:
        for t in range(T):
            total += (predicted[s, t] - observed[s, t]) ** 2
    return total / (T * len(omega))


def naive_adjusted_r2(observed, fitted, nu):
    n = observed.size
    ss_fit = 0.0
    for s in range(observed.shape[0]):
        for t in range(observed.shape[1]):
            ss_fit += (fitted[s, t] - observed[s, t]) ** 2
    zbar = sum(
        observed[s, t]
        for s in range(observed.shape[0])
        for t in range(observed.shape[1])
    ) / n
    ss_total = 0.0
    for s in range(observed.shape[0]):
        for t in range(observed.shape[1]):
            ss_total += (observed[s, t] - zbar) ** 2
    return 1.0 - (ss_fit / (n - nu)) / (ss_total / n)


def as_field(layout, values, dt=30.0):
    ts = np.arange(values.shape[1]) * dt
    return SpatioTemporalField(
        layout=layout, timestamps=ts, values=values, kind="detrended"
    )


def advective_field(seed, n_times=144, spacing=90.0):
    cfg = FieldSimConfig(
        layout=grid_layout(4, 4, spacing),
        n_times=n_times,
        regime="partly_cloudy",
        mode="advective",
        velocity=(3.0, 0.0),
        corr_length=60.0,
        seed=seed,
    )
    return simulate_field(cfg)


# ---------------------------------------------------------------- rmse


def test_rmse_perfect_fit_is_zero():
    z = np.random.default_rng(0).normal(size=(4, 9))
    assert rmse(z, z.copy()) == 0.0


def test_rmse_constant_offset():
    z = np.random.default_rng(1).normal(size=(3, 8))
    assert rmse(z, z - 3.25) == pytest.approx(3.25, abs=1e-12)


def test_rmse_matches_naive_loop():
    rng = np.random.default_rng(2)
    for _ in range(20):
        obs = rng.normal(size=(4, 5))
        fit = rng.normal(size=(4, 5))
        for start in (0, 1, 2):
            assert rmse(obs, fit, start) == pytest.approx(
                naive_rmse(obs, fit, start), abs=1e-12
            )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rmse_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(5, 7))
    fit = rng.normal(size=(5, 7))
    rows = rng.permutation(5)
    cols = rng.permutation(7)
    a = rmse(obs, fit)
    b = rmse(obs[rows][:, cols], fit[rows][:, cols])
    assert a == pytest.approx(b, rel=1e-12)


def test_rmse_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        rmse(np.zeros((3, 4)), np.zeros((3, 5)))


def test_rmse_empty_support_raises():
    with pytest.raises(ValueError, match="nothing to score"):
        rmse(np.zeros((2, 4)), np.zeros((2, 4)), support_start=4)


# ---------------------------------------------------------------- rmpe


def test_rmpe_perfect_prediction_is_zero():
    z = np.random.default_rng(3).normal(size=(5, 6))
    assert rmpe(z, z.copy(), (2,)) == 0.0


def test_rmpe_unit_errors_literal_value():
    obs = np.zeros((3, 4))
    pred = np.zeros((3, 4))
    pred[1] = 1.0
    assert rmpe(obs, pred, (1,)) == 1.0


def test_rmpe_is_on_the_squared_scale():
    obs = np.zeros((2, 5))
    pred = np.full((2, 5), 2.0)
    assert rmpe(obs, pred, (0,)) == 4.0


def test_rmpe_pair_averages_singletons():
    rng = np.random.default_rng(4)
    obs = rng.normal(size=(6, 11))
    pred = rng.normal(size=(6, 11))
    both = rmpe(obs, pred, (1, 4))
    single = 0.5 * (rmpe(obs, pred, (1,)) + rmpe(obs, pred, (4,)))
    assert both == pytest.approx(single, rel=1e-12)


def test_rmpe_matches_naive_loop():
    rng = np.random.default_rng(5)
    for _ in range(20):
        obs = rng.normal(size=(5, 7))
        pred = rng.normal(size=(5, 7))
        omega = tuple(rng.choice(5, size=2, replace=False).tolist())
        assert rmpe(obs, pred, omega) == pytest.approx(
            naive_rmpe(obs, pred, omega), abs=1e-12
        )


def test_rmpe_rejects_bad_omega():
    z = np.zeros((4, 3))
    with pytest.raises(ValueError, match="empty"):
        rmpe(z, z, ())
    with pytest.raises(ValueError, match="out of range"):
        rmpe(z, z, (7,))
    with pytest.raises(ValueError, match="repeats"):
        rmpe(z, z, (1, 1))


# ---------------------------------------------------------------- adjusted_r2


def test_adjusted_r2_perfect_fit_is_exactly_one():
    z = np.random.default_rng(6).normal(size=(4, 9))
    for nu in (0.0, 3.0, 17.5):
        assert adjusted_r2(z, z.copy(), nu) == 1.0


def test_adjusted_r2_mean_fit_is_zero():
    z = np.random.default_rng(7).normal(size=(4, 9))
    fitted = np.full_like(z, z.mean())
    assert adjusted_r2(z, fitted, 0.0) == 0.0


def test_adjusted_r2_matches_naive_loop():
    rng = np.random.default_rng(8)
    for _ in range(20):
        obs = rng.normal(size=(5, 7))
        fit = obs + 0.1 * rng.normal(size=(5, 7))
        nu = float(rng.uniform(0, 10))
        assert adjusted_r2(obs, fit, nu) == pytest.approx(
            naive_adjusted_r2(obs, fit, nu), abs=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_adjusted_r2_strictly_decreases_in_nu(seed):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(4, 6))
    fit = obs + 0.3 * rng.normal(size=(4, 6))
    values = [adjusted_r2(obs, fit, nu) for nu in (0.0, 1.0, 5.0, 15.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_adjusted_r2_rejects_degenerate_inputs():
    z = np.random.default_rng(9).normal(size=(3, 4))
    with pytest.raises(ValueError, match="parameter count"):
        adjusted_r2(z, z, 12.0)
    const = np.full((3, 4), 2.0)
    with pytest.raises(ValueError, match="constant field"):
        adjusted_r2(const, const + 1.0, 0.0)


# ---------------------------------------------------------------- plan


def test_plan_enumerates_all_subsets():
    plan = CrossvalPlan.all_subsets(6, 2)
    assert plan.k == 2
    assert len(plan.combinations) == math.comb(6, 2)
    assert not plan.sampled
    brute = {
        frozenset((i, j)) for i in range(6) for j in range(i + 1, 6)
    }
    assert {frozenset(c) for c in plan.combinations} == brute


def test_plan_16_choose_1_is_16_subsets():
    plan = CrossvalPlan.all_subsets(16, 1)
    assert [c[0] for c in plan.combinations] == list(range(16))


def test_plan_samples_past_the_cap():
    plan = CrossvalPlan.all_subsets(30, 5, cap=500, seed=11)
    assert plan.sampled and plan.seed == 11
    assert len(plan.combinations) == 500
    assert len(set(plan.combinations)) == 500
    assert all(len(c) == 5 for c in plan.combinations)
    again = CrossvalPlan.all_subsets(30, 5, cap=500, seed=11)
    assert again.combinations == plan.combinations
    other = CrossvalPlan.all_subsets(30, 5, cap=500, seed=12)
    assert other.combinations != plan.combinations


def test_plan_validation():
    with pytest.raises(ValueError, match="distinct"):
        CrossvalPlan(k=2, combinations=((0, 0),))
    with pytest.raises(ValueError, match="repeats"):
        CrossvalPlan(k=1, combinations=((3,), (3,)))
    with pytest.raises(ValueError, match="no subsets"):
        CrossvalPlan(k=1, combinations=())
    with pytest.raises(ValueError, match="1 <= k"):
        CrossvalPlan.all_subsets(4, 0)


def test_plan_sorts_within_subsets():
    plan = CrossvalPlan(k=2, combinations=((4, 1), (2, 0)))
    assert plan.combinations == ((1, 4), (0, 2))


# ---------------------------------------------------------------- crossval


def linear_field(n_times=24):
    layout = grid_layout(4, 4, 30.0)
    rng = np.random.default_rng(13)
    coeffs = rng.normal(size=(3, n_times))
    x = layout.xy[:, 0][:, None]
    y = layout.xy[:, 1][:, None]
    values = coeffs[0][None, :] + coeffs[1][None, :] * x / 30.0 + coeffs[2][None, :] * y / 30.0
    return as_field(layout, values)


def test_natural_neighbor_crossval_exact_on_linear_field():
    field = linear_field()
    plan = CrossvalPlan(k=1, combinations=((5,), (6,), (9,), (10,)))
    report = crossval(field, plan, "natural_neighbor")
    assert report.mean_rmpe < 1e-6
    assert len(report.rmpe_values) == 4


def test_crossval_k1_gives_one_value_per_sensor():
    field = advective_field(seed=0, n_times=40)
    plan = CrossvalPlan.all_subsets(16, 1)
    report = crossval(field, plan, "natural_neighbor")
    assert len(report.rmpe_values) == 16
    assert all(v > 0 and np.isfinite(v) for v in report.rmpe_values)


def test_crossval_result_is_order_independent():
    layout = grid_layout(3, 2, 30.0)
    rng = np.random.default_rng(14)
    field = as_field(layout, rng.normal(size=(6, 20)))
    plan = CrossvalPlan.all_subsets(6, 2)
    assert len(plan.combinations) == 15
    forward = crossval(field, plan, "natural_neighbor")
    reversed_plan = CrossvalPlan(
        k=2, combinations=tuple(reversed(plan.combinations))
    )
    backward = crossval(field, reversed_plan, "natural_neighbor")
    assert forward.mean_rmpe == pytest.approx(backward.mean_rmpe, rel=1e-12)
    assert sorted(forward.rmpe_values) == pytest.approx(
        sorted(backward.rmpe_values), rel=1e-12
    )


def fcsar_template(field, b=1):
    graph = build_neighbor_graph(field.layout, 2)
    return FcsarSpec.uniform(graph, b, FcarSpec.delay_absorbed(1, 1))


def test_crossval_fcsar_refits_without_the_held_out_sensor():
    field = advective_field(seed=0)
    spec = fcsar_template(field)
    plan = CrossvalPlan(k=1, combinations=((5,), (10,)))
    report = crossval(field, plan, "fcsar", spec, LIGHT)
    assert report.model == "fcsar"
    assert len(report.rmpe_values) == 2
    assert all(np.isfinite(v) and v > 0 for v in report.rmpe_values)
    again = crossval(field, plan, "fcsar", spec, LIGHT)
    assert again.rmpe_values == report.rmpe_values


def test_crossval_fcsar_beats_interpolation_on_advective_field():
    field = advective_field(seed=0)
    spec = fcsar_template(field)
    plan = CrossvalPlan(k=1, combinations=((5,), (6,), (9,), (10,)))
    model = crossval(field, plan, "fcsar", spec, LIGHT, eval_start=1)
    baseline = crossval(field, plan, "natural_neighbor", eval_start=1)
    assert rmpe_ratio(model, baseline) < 1.0


def test_crossval_validates_inputs():
    field = advective_field(seed=1, n_times=30)
    plan = CrossvalPlan(k=1, combinations=((2,),))
    with pytest.raises(ValueError, match="model must be one of"):
        crossval(field, plan, "kriging")
    with pytest.raises(ValueError, match="template spec"):
        crossval(field, plan, "fcsar")
    bad = CrossvalPlan(k=1, combinations=((22,),))
    with pytest.raises(ValueError, match="out of range"):
        crossval(field, bad, "natural_neighbor")
    spec = fcsar_template(field)
    with pytest.raises(ValueError, match="eval_start"):
        crossval(field, plan, "fcsar", spec, LIGHT, eval_start=0)
    tiny = field.subset(field.layout.ids[:4])
    wide = CrossvalPlan(k=2, combinations=((0, 1),))
    with pytest.raises(ValueError, match="too few"):
        crossval(tiny, wide, "natural_neighbor")


def test_crossval_names_the_failing_subset():
    field = advective_field(seed=2, n_times=30)
    values = field.values.copy()
    values[5] = 0.25
    flat = field.replace_values(values)
    plan = CrossvalPlan(k=1, combinations=((7,),))
    with pytest.raises(RuntimeError, match=re.escape("sensors ('s07',) held out: sensor 's05'")):
        crossval(flat, plan, "fcsar", fcsar_template(flat), LIGHT)
    # a series too short for every subset fails before any, naming none
    short = SpatioTemporalField(field.layout, field.timestamps[:3], field.values[:, :3], "detrended")
    with pytest.raises(ValueError, match="^series too short: 3 time points leave 2 usable rows"):
        crossval(short, plan, "fcsar", fcsar_template(short), LIGHT)


# ------------------------------------------- refit-everything oracle
# The per-subset refit that fcsar cross-validation ran before it shared
# backfits within a call, kept verbatim as the reference, in the scoring
# loop of ``crossval``.


def _fcsar_holdout_predictions(
    field: SpatioTemporalField,
    omega,
    spec: FcsarSpec,
    options,
) -> np.ndarray:
    """Refit on the remaining sensors and predict each held-out one."""
    layout = field.layout
    held = set(omega)
    train_ids = tuple(
        sid for i, sid in enumerate(layout.ids) if i not in held
    )
    train_field = field.subset(train_ids)
    graph = build_neighbor_graph(train_field.layout, spec.graph.k)
    sub_spec = FcsarSpec(
        graph=graph,
        n_neighbor_lags=spec.n_neighbor_lags,
        temporal=spec.temporal,
    )
    fit = fit_fcsar(train_field, sub_spec, options)
    preds = np.empty((len(omega), field.n_times))
    for row, i in enumerate(omega):
        xy = (float(layout.xy[i, 0]), float(layout.xy[i, 1]))
        preds[row] = predict_missing_sensor(fit, train_field, layout.ids[i], xy)
    return preds


def oracle_crossval(field, plan, spec, options, eval_start=None):
    """``crossval``'s fcsar scores with every subset refit from scratch."""
    S = field.n_sensors
    start = spec.n_neighbor_lags if eval_start is None else eval_start
    values = []
    for omega in plan.combinations:
        try:
            preds = _fcsar_holdout_predictions(field, omega, spec, options)
        except Exception as exc:
            held_ids = tuple(field.layout.ids[i] for i in omega)
            raise RuntimeError(
                f"refit failed with sensors {held_ids} held out: {exc}"
            ) from exc
        pred_matrix = np.full((S, field.n_times), np.nan)
        pred_matrix[list(omega)] = preds
        values.append(rmpe(field.values[:, start:], pred_matrix[:, start:], omega))
    return MetricsReport(
        model="fcsar", plan=plan, rmpe_values=tuple(values), mean_rmpe=float(np.mean(values))
    )


def assert_matches_oracle(field, plan, spec, options=LIGHT, **kwargs):
    shared = crossval(field, plan, "fcsar", spec, options, **kwargs)
    oracle = oracle_crossval(field, plan, spec, options, **kwargs)
    assert shared.rmpe_values == oracle.rmpe_values
    assert shared.mean_rmpe == oracle.mean_rmpe


def jittered_field(seed, n_times=60):
    grid = grid_layout(4, 4, 90.0)
    rng = np.random.default_rng(seed)
    layout = SensorLayout(grid.ids, grid.xy + rng.uniform(-20.0, 20.0, grid.xy.shape))
    cfg = FieldSimConfig(
        layout=layout, n_times=n_times, mode="advective", corr_length=60.0, seed=seed
    )
    return simulate_field(cfg)


@pytest.mark.parametrize("b", [1, 2])
def test_shared_backfits_match_refit_oracle_on_regular_grid(b):
    # every held-out grid sensor has tied nearest training sensors, so the
    # prediction uses the mean of all training coefficient blocks
    field = advective_field(seed=3, n_times=60)
    plan = CrossvalPlan.all_subsets(16, 1)
    assert_matches_oracle(field, plan, fcsar_template(field, b))


@pytest.mark.parametrize("b", [1, 2])
def test_shared_backfits_match_refit_oracle_on_jittered_layout(b):
    # no ties: the prediction borrows a single donor's coefficients
    field = jittered_field(seed=4)
    plan = CrossvalPlan.all_subsets(16, 1)
    assert_matches_oracle(field, plan, fcsar_template(field, b))


def test_shared_backfits_match_refit_oracle_for_pairs():
    field = jittered_field(seed=5)
    plan = CrossvalPlan(
        k=2, combinations=((0, 1), (0, 5), (5, 6), (6, 10), (9, 10), (14, 15))
    )
    assert_matches_oracle(field, plan, fcsar_template(field, 2))


def test_shared_backfits_match_refit_oracle_on_sampled_plan():
    field = advective_field(seed=6, n_times=60)
    plan = CrossvalPlan.all_subsets(16, 3, cap=8, seed=2)
    assert plan.sampled
    assert_matches_oracle(field, plan, fcsar_template(field), eval_start=2)


def test_shared_backfits_do_not_outlive_the_call():
    # two fields on one layout, back to back: same keys, different data
    first = advective_field(seed=8, n_times=60)
    second = advective_field(seed=9, n_times=60)
    plan = CrossvalPlan.all_subsets(16, 1)
    spec = fcsar_template(first)
    a = crossval(first, plan, "fcsar", spec, LIGHT)
    b = crossval(second, plan, "fcsar", spec, LIGHT)
    assert a.rmpe_values != b.rmpe_values
    assert a.rmpe_values == oracle_crossval(first, plan, spec, LIGHT).rmpe_values
    assert b.rmpe_values == oracle_crossval(second, plan, spec, LIGHT).rmpe_values


def failure_message(run):
    with pytest.raises(RuntimeError, match="refit failed with sensors") as exc:
        run()
    return str(exc.value)


def test_shared_backfits_fail_like_the_refit_oracle():
    plan = CrossvalPlan(k=1, combinations=((3,), (7,)))
    raw = simulate_field(
        FieldSimConfig(grid_layout(4, 4, 90.0), 60, diurnal_amplitude=50.0, seed=0)
    )
    assert raw.kind == "raw"
    base = advective_field(seed=2, n_times=30)
    # a sensor with a constant series fails while its fcar design is
    # built, and the error still names it
    values = base.values.copy()
    values[5] = 0.25
    flat = SpatioTemporalField(base.layout, base.timestamps, values, "detrended")
    # a neighbor count the training subsets cannot hold
    crowded = FcsarSpec.uniform(
        build_neighbor_graph(base.layout, 15), 1, FcarSpec.delay_absorbed(1, 1)
    )
    long = advective_field(seed=2, n_times=60)
    cases = [
        (raw, fcsar_template(raw), "detrend"),
        (flat, fcsar_template(flat), "sensor 's05', time indices 1..29: functional variable is constant"),
        (long, crowded, "k=15 needs at least k+1=16 sensors, have 15"),
    ]
    for field, spec, reason in cases:
        shared = failure_message(
            lambda: crossval(field, plan, "fcsar", spec, LIGHT)
        )
        oracle = failure_message(
            lambda: oracle_crossval(field, plan, spec, LIGHT)
        )
        assert shared == oracle
        assert "('s03',) held out" in shared and reason in shared
    # the first failure in plan order: a constant sensor that the second
    # subset is the first to need (sensor 3, held out by the first)
    values = base.values.copy()
    values[3] = 0.25
    flat3 = SpatioTemporalField(base.layout, base.timestamps, values, "detrended")
    spec = fcsar_template(flat3)
    shared = failure_message(lambda: crossval(flat3, plan, "fcsar", spec, LIGHT))
    assert shared == failure_message(lambda: oracle_crossval(flat3, plan, spec, LIGHT))
    assert "('s07',) held out: sensor 's03'" in shared


def test_neighbor_sets_equal_the_training_graphs():
    # each subset's neighbor sets, read off one nearest-first order per
    # sensor of the full layout, against the graph built on the training
    # layout: ties (the regular grid), none (jittered), and coordinates
    # far from the origin, where the distances round differently
    grid = grid_layout(4, 4, 90.0)
    jittered = jittered_field(seed=4).layout
    layouts = [
        grid,
        jittered,
        SensorLayout(grid.ids, grid.xy + (12345.678, 0.1)),
        SensorLayout(jittered.ids, jittered.xy + (12345.678, 0.1)),
    ]
    plans = [CrossvalPlan.all_subsets(16, 1), CrossvalPlan.all_subsets(16, 2)]
    base = advective_field(seed=3, n_times=30)
    for layout in layouts:
        field = SpatioTemporalField(layout, base.timestamps, base.values, base.kind)
        for k in (1, 2, 3):
            spec = FcsarSpec.uniform(
                build_neighbor_graph(layout, k), 1, FcarSpec.delay_absorbed(1, 1)
            )
            for plan in plans:
                shared = evaluation._SharedBackfits(field, plan, spec, LIGHT)
                for omega in plan.combinations:
                    train_ids = tuple(
                        sid for i, sid in enumerate(layout.ids) if i not in omega
                    )
                    train = layout.subset(train_ids)
                    graph = build_neighbor_graph(train, k)
                    got = tuple(
                        tuple(train.index_of(layout.ids[j]) for j in neighbors)
                        for _, neighbors in shared.subsets[omega]
                    )
                    assert got == graph.neighbors
                    assert [layout.ids[s] for s, _ in shared.subsets[omega]] == list(train_ids)


def test_crossval_backfits_each_sensor_once_with_one_design_alive(monkeypatch):
    # leave-one-out on 16 sensors backfits 48 distinct (sensor, neighbor
    # set) keys: one batched backfit per sensor, covering all of its sets,
    # on one fcar design each (one spline SVD per component), and no
    # design is alive when the next is built or after the call
    import gc
    import weakref

    from skylattice import fcar, fcsar

    built, svds, batches = [], [], []
    fit_design, stack_svd = fcsar._fit_design, fcar._stack_svd
    backfit = evaluation._backfit_sensor

    def counting_design(*args):
        gc.collect()
        assert all(ref() is None for ref in built)
        design = fit_design(*args)
        built.append(weakref.ref(design))
        return design

    def counting_svd(*args):
        svds.append(1)
        return stack_svd(*args)

    def counting_backfit(z, s, neighbor_sets, *args):
        batches.append(len(neighbor_sets))
        return backfit(z, s, neighbor_sets, *args)

    monkeypatch.setattr(fcsar, "_fit_design", counting_design)
    monkeypatch.setattr(fcar, "_stack_svd", counting_svd)
    monkeypatch.setattr(evaluation, "_backfit_sensor", counting_backfit)
    field = advective_field(seed=3, n_times=60)
    spec = FcsarSpec.uniform(
        build_neighbor_graph(field.layout, 2), 2, FcarSpec.delay_absorbed(2, 1)
    )
    crossval(field, CrossvalPlan.all_subsets(16, 1), "fcsar", spec, LIGHT)
    assert (len(built), len(svds), len(batches), sum(batches)) == (16, 32, 16, 48)
    gc.collect()
    assert all(ref() is None for ref in built)


def test_crossval_command_builds_no_training_field(tmp_path, monkeypatch):
    # one leave-one-out command on the 4x4 grid: a layout is validated once
    # when read and once per interpolation subset; fcsar predictions read
    # the full field's rows and the planned orders, so no training field
    # is built and no nearest-first order is sorted per prediction; each
    # of the 4 interior held-out sensors takes one Voronoi diagram, and
    # the 12 on the hull none
    import scipy.spatial

    from skylattice import fcsar

    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--out", str(sim), "--T", "60", "--seed", "3"]) == 0
    calls = {}
    targets = {
        "layouts": (SensorLayout, "__post_init__"),
        "subsets": (SpatioTemporalField, "subset"),
        "predict_orders": (fcsar, "_nearest_first"),
        "plan_orders": (evaluation, "_nearest_first"),
        "diagrams": (scipy.spatial, "Voronoi"),
    }
    for key, (owner, name) in targets.items():
        calls[key] = 0

        def counted(*args, _key=key, _fn=getattr(owner, name), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    argv = [
        "crossval",
        "--measurements", str(sim / "measurements.csv"),
        "--layout", str(sim / "layout.csv"),
        "--out", str(tmp_path / "cv"),
        "--window", "0", "--b", "1", "--p", "1", "--knots", "8", "--k", "1",
    ]
    assert cli_main(argv) == 0
    assert calls.pop("layouts") <= 1 + 16
    assert calls == {"subsets": 0, "predict_orders": 0, "plan_orders": 16, "diagrams": 4}


# ---------------------------------------------------------------- ratio


def make_report(mean, plan=None):
    plan = plan or CrossvalPlan(k=1, combinations=((0,),))
    return MetricsReport(
        model="fcsar",
        plan=plan,
        rmpe_values=(mean,) * len(plan.combinations),
        mean_rmpe=mean,
    )


def test_rmpe_ratio_arithmetic():
    plan = CrossvalPlan(k=1, combinations=((0,), (1,)))
    assert rmpe_ratio(make_report(2.0, plan), make_report(4.0, plan)) == 0.5
    assert rmpe_ratio(make_report(3.0, plan), make_report(3.0, plan)) == 1.0


def test_rmpe_ratio_rejects_mismatched_plans():
    a = make_report(1.0, CrossvalPlan(k=1, combinations=((0,),)))
    b = make_report(1.0, CrossvalPlan(k=1, combinations=((1,),)))
    with pytest.raises(ValueError, match="different"):
        rmpe_ratio(a, b)


def test_rmpe_ratio_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rmpe_ratio(make_report(1.0), make_report(0.0))


def test_report_validates_values():
    plan = CrossvalPlan(k=1, combinations=((0,), (1,)))
    with pytest.raises(ValueError, match="plan subsets"):
        MetricsReport(model="m", plan=plan, rmpe_values=(1.0,), mean_rmpe=1.0)
    with pytest.raises(ValueError, match="finite"):
        MetricsReport(
            model="m", plan=plan, rmpe_values=(1.0, np.nan), mean_rmpe=1.0
        )


# ---------------------------------------------------------------- csv


def test_csv_writers_roundtrip(tmp_path):
    # ``crossval`` and ``report`` write their ratio and window RMSE rows in
    # .10g under fixed headers
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--out", str(sim), "--T", "120", "--seed", "3"]) == 0
    inputs = ["--measurements", str(sim / "measurements.csv"),
              "--layout", str(sim / "layout.csv")]
    model = ["--label", "day1", "--b", "1", "--p", "1", "--knots", "8"]
    argv = ["crossval", *inputs, *model, "--window", "0", "--k", "1"]
    assert cli_main([*argv, "--out", str(tmp_path / "cv")]) == 0
    argv = ["report", *inputs, *model, "--windows", "60"]
    assert cli_main([*argv, "--out", str(tmp_path / "rep")]) == 0

    field = ingest_field(
        read_measurements_csv(sim / "measurements.csv"),
        read_layout_csv(sim / "layout.csv"),
        kind="detrended",
    )
    spec = FcsarSpec.uniform(
        build_neighbor_graph(field.layout, 2), 1, FcarSpec.delay_absorbed(1, 1)
    )
    plan = CrossvalPlan.all_subsets(16, 1)
    ratio = rmpe_ratio(
        crossval(field, plan, "fcsar", spec, LIGHT, eval_start=1),
        crossval(field, plan, "natural_neighbor", eval_start=1),
    )
    averaged = time_average(field, 60.0)
    fit = fit_fcsar(averaged, spec, LIGHT)
    obs = averaged.values[:, fit.support_start :]
    fitted = fit.fitted_values[:, fit.support_start :]
    window_rmse = rmse(obs, fitted)
    n_params = float(fit.beta.size) + float(sum(effective_params(f) for f in fit.fcar_fits))
    adj = adjusted_r2(obs, fitted, n_params)

    rows = list(csv.reader((tmp_path / "cv" / "rmpe_ratio.csv").open()))
    assert rows == [["label", "k", "ratio"], ["day1", "1", f"{ratio:.10g}"]]
    rows = list(csv.reader((tmp_path / "rep" / "window_rmse.csv").open()))
    assert rows == [
        ["label", "window", "rmse", "adj_r2"],
        ["day1", "60", f"{window_rmse:.10g}", f"{adj:.10g}"],
    ]
