"""Tests for the coupled lattice model, factored pipelines, and diagnostics."""

import csv

import numpy as np
import pytest

from skylattice import (
    SensorLayout,
    SpatioTemporalField,
    build_neighbor_graph,
    grid_layout,
    natural_neighbor_predict,
)
from skylattice.fcar import FcarOptions, FcarSpec, effective_params, fit_fcar
from skylattice.fcsar import (
    _BACKFIT_CYCLES,
    FcsarFit,
    FcsarSpec,
    _check_detrended,
    _check_same_layout,
    _neighbor_design,
    _temporal_stage,
    _transfer_sum,
    fit_fcsar,
    nan_padded,
    fit_separable,
    predict_missing_sensor,
    separability_diagnostic,
    write_separability_csv,
)
from skylattice.simulation import FieldSimConfig, simulate_field

AR1_SPEC = FcarSpec.delay_absorbed(1, 1)
AR2_SPEC = FcarSpec.delay_absorbed(2, 1)
LIGHT = FcarOptions(n_knots=8)


def small_layout(spacing=30.0):
    return grid_layout(4, 4, spacing=spacing)


def as_field(layout, z, dt=60.0):
    return SpatioTemporalField(
        layout, np.arange(z.shape[1]) * dt, np.asarray(z, dtype=float), "detrended"
    )


def simulate_lattice(layout, graph, T, *, beta=0.3, own=0.2, sd=0.5, seed=0, burn=100):
    """Ground-truth generator: lag-1 neighbor transfer plus linear own-lag."""
    rng = np.random.default_rng(seed)
    S = layout.n_sensors
    nbr = np.array([list(nb) for nb in graph.neighbors])
    z = np.zeros((S, T + burn))
    for t in range(1, T + burn):
        spat = beta * z[nbr[:, 0], t - 1] + beta * z[nbr[:, 1], t - 1]
        z[:, t] = spat + own * z[:, t - 1] + sd * rng.standard_normal(S)
    return z[:, burn:]


def advective_field(T=144, spacing=90.0, corr_length=120.0, seed=0, regime="partly_cloudy"):
    layout = small_layout(spacing)
    cfg = FieldSimConfig(
        layout, T, regime=regime, mode="advective", corr_length=corr_length, seed=seed
    )
    return simulate_field(cfg)


def separable_field(T=144, spacing=90.0, corr_length=60.0, seed=0):
    layout = small_layout(spacing)
    cfg = FieldSimConfig(
        layout, T, mode="separable", corr_length=corr_length, seed=seed
    )
    return simulate_field(cfg)


# ---------------------------------------------------------------- spec types


def test_spec_requires_positive_neighbor_lag():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    with pytest.raises(ValueError, match="n_neighbor_lags"):
        FcsarSpec(graph, 0, (AR1_SPEC,) * 16)


def test_spec_requires_one_temporal_spec_per_sensor():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    with pytest.raises(ValueError, match="per sensor"):
        FcsarSpec(graph, 1, (AR1_SPEC,) * 15)


def test_uniform_spec_and_support_start():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    spec = FcsarSpec.uniform(graph, 1, AR2_SPEC)
    assert len(spec.sensor_specs) == 16
    assert all(s is AR2_SPEC for s in spec.sensor_specs)
    assert spec.support_start == 2  # max(b=1, max_lag=2)
    assert FcsarSpec.uniform(graph, 3, AR1_SPEC).support_start == 3


def test_fit_dataclass_validates_beta_shape():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    with pytest.raises(ValueError, match="beta"):
        FcsarFit(
            spec=spec,
            beta=np.zeros((16, 3, 1)),
            fcar_fits=(),
            fitted_values=np.zeros((16, 10)),
            residuals=np.zeros((16, 10)),
            support_start=1,
        )


# ---------------------------------------------------------------- fitting


def test_known_transfer_recovery_single_field():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = simulate_lattice(layout, graph, 500, seed=1)
    fit = fit_fcsar(as_field(layout, z), FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)
    assert abs(fit.beta.mean() - 0.3) < 0.05
    assert fit.deficient_sensors == ()


def test_known_transfer_recovery_mean_over_100_replicates():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    means = []
    for seed in range(100):
        z = simulate_lattice(layout, graph, 500, seed=seed)
        means.append(fit_fcsar(as_field(layout, z), spec, LIGHT).beta.mean())
    assert abs(float(np.mean(means)) - 0.3) < 0.05


def test_decomposition_identity_exact():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = simulate_lattice(layout, graph, 300, seed=7)
    fit = fit_fcsar(as_field(layout, z), FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)
    t0 = fit.support_start
    recon = fit.fitted_values[:, t0:] + fit.residuals[:, t0:]
    assert np.max(np.abs(recon - z[:, t0:])) < 1e-12
    assert np.all(np.isnan(fit.fitted_values[:, :t0]))
    assert np.all(np.isnan(fit.residuals[:, :t0]))


def test_frozen_transfer_reproduces_standalone_fits_bitwise():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = simulate_lattice(layout, graph, 300, seed=3)
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    frozen = fit_fcsar(as_field(layout, z), spec, LIGHT, freeze_beta_at_zero=True)
    assert np.all(frozen.beta == 0.0)
    for s in range(16):
        solo = fit_fcar(z[s], AR1_SPEC, LIGHT, t_start=spec.support_start)
        assert np.array_equal(frozen.fcar_fits[s].fitted, solo.fitted)
        assert np.array_equal(frozen.fcar_fits[s].residuals, solo.residuals)
        assert np.array_equal(frozen.fcar_fits[s].spline_coeffs, solo.spline_coeffs)


def test_zero_coupling_centers_beta_and_matches_standalone_variance():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    rng = np.random.default_rng(100)
    z = np.zeros((16, 400))
    for t in range(1, 400):
        z[:, t] = 0.5 * z[:, t - 1] + rng.standard_normal(16)
    field = as_field(layout, z)
    coupled = fit_fcsar(field, spec, LIGHT)
    standalone = fit_fcsar(field, spec, LIGHT, freeze_beta_at_zero=True)
    assert abs(coupled.beta.mean()) < 0.02
    rv = np.mean([f.residual_variance for f in coupled.fcar_fits])
    rv0 = np.mean([f.residual_variance for f in standalone.fcar_fits])
    assert abs(rv / rv0 - 1.0) < 0.05


def test_total_params_formula():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = simulate_lattice(layout, graph, 200, seed=5)
    fit = fit_fcsar(as_field(layout, z), FcsarSpec.uniform(graph, 2, AR1_SPEC), LIGHT)
    expected = fit.beta.size + sum(effective_params(f) for f in fit.fcar_fits)
    assert fit.beta.size == 16 * 2 * 2
    assert fit.total_params == pytest.approx(expected, abs=1e-12)


def test_identical_sensors_flagged_minimum_norm():
    # duplicated neighbor columns: solvable, flagged, weight split evenly
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(300)) * 0.1
    x -= x.mean()
    z = np.tile(x, (16, 1))
    fit = fit_fcsar(as_field(layout, z), FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)
    assert set(fit.deficient_sensors) == set(layout.ids)
    slot_diff = np.abs(fit.beta[:, 0, 0] - fit.beta[:, 1, 0])
    assert np.max(slot_diff) < 1e-8


def test_collinear_design_raises_under_strict_rank():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(300)) * 0.1
    z = np.tile(x - x.mean(), (16, 1))
    strict = FcarOptions(n_knots=8, strict_rank=True)
    with pytest.raises(ValueError, match="collinear neighbor regressors for sensor"):
        fit_fcsar(as_field(layout, z), FcsarSpec.uniform(graph, 1, AR1_SPEC), strict)


def test_too_short_series_raises():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = np.random.default_rng(0).standard_normal((16, 4))
    with pytest.raises(ValueError, match="too short"):
        fit_fcsar(as_field(layout, z), FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)


def test_layout_mismatch_raises():
    layout = small_layout()
    other = grid_layout(4, 4, spacing=50.0)
    graph = build_neighbor_graph(other, k=2)
    z = simulate_lattice(layout, build_neighbor_graph(layout, k=2), 100, seed=0)
    with pytest.raises(ValueError, match="layout"):
        fit_fcsar(as_field(layout, z), FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)


def test_masked_field_raises():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = simulate_lattice(layout, graph, 100, seed=0)
    mask = np.zeros_like(z, dtype=bool)
    mask[0, 10] = True
    field = SpatioTemporalField(
        layout, np.arange(100.0) * 60, z, "detrended", mask=mask
    )
    with pytest.raises(ValueError, match="complete"):
        fit_fcsar(field, FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)


def test_raw_field_rejected():
    layout = small_layout()
    cfg = FieldSimConfig(layout, 144, diurnal_amplitude=50.0, seed=0)
    field = simulate_field(cfg)
    assert field.kind == "raw"
    graph = build_neighbor_graph(layout, k=2)
    with pytest.raises(ValueError, match="detrend"):
        fit_fcsar(field, FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)
    with pytest.raises(ValueError, match="detrend"):
        fit_separable(field, "space_then_time", graph, AR1_SPEC, LIGHT)


# --------------------------------------------- cycle-major backfit oracle
# The whole-field, cycle-major backfit that ``fit_fcsar`` ran before its
# loop became one backfit per sensor, kept verbatim as the reference.


def _fit_neighbor_coefficients(
    z: np.ndarray,
    graph,
    b: int,
    t0: int,
    response: np.ndarray,
    strict: bool,
):
    """Per-sensor least squares of ``response`` rows on lagged neighbor values.

    Rank-deficient designs (duplicated sensors, constant fields) take the
    minimum-norm solution and are flagged; under ``strict`` they raise.
    """
    S = z.shape[0]
    beta = np.empty((S, graph.k, b))
    deficient = []
    for s in range(S):
        design = _neighbor_design(z, graph.neighbors[s], b, t0)
        coef, _, rank, _ = np.linalg.lstsq(design, response[s], rcond=None)
        if rank < design.shape[1]:
            sensor = graph.layout.ids[s]
            if strict:
                raise ValueError(
                    f"collinear neighbor regressors for sensor {sensor!r}"
                )
            deficient.append(sensor)
        beta[s] = coef.reshape(graph.k, b)
    return beta, tuple(deficient)


def oracle_fit_fcsar(field, spec, options=None, *, freeze_beta_at_zero=False):
    field.require_complete("fit_fcsar")
    _check_detrended(field, "fit_fcsar")
    _check_same_layout(field.layout, spec.graph.layout, "fit_fcsar")
    z = field.values
    S, T = z.shape
    t0 = spec.support_start
    b = spec.n_neighbor_lags
    n_rows = T - t0
    n_coef = spec.graph.k * b
    if n_rows < n_coef + 2:
        raise ValueError(
            f"series too short: {T} time points leave {n_rows} usable rows "
            f"for {n_coef} neighbor coefficients per sensor"
        )
    strict = bool(options.strict_rank) if options is not None else False

    n_cycles = 0 if freeze_beta_at_zero else _BACKFIT_CYCLES
    beta = np.zeros((S, spec.graph.k, b))
    deficient = ()
    spatial = np.zeros((S, T))
    temporal = np.zeros((S, n_rows))
    for cycle in range(n_cycles):
        beta, deficient = _fit_neighbor_coefficients(
            z, spec.graph, b, t0, z[:, t0:] - temporal, strict
        )
        for s in range(S):
            spatial[s, b:] = _transfer_sum(z, spec.graph.neighbors[s], beta[s], b)
        if cycle + 1 < n_cycles:
            fits = _temporal_stage(z, spatial, spec, options, t0)
            temporal = np.stack([f.fitted for f in fits])
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
        deficient_sensors=deficient,
    )


def assert_same_fit(new, old):
    assert np.array_equal(new.beta, old.beta)
    assert np.array_equal(new.fitted_values, old.fitted_values, equal_nan=True)
    assert np.array_equal(new.residuals, old.residuals, equal_nan=True)
    assert new.support_start == old.support_start
    assert new.deficient_sensors == old.deficient_sensors
    assert len(new.fcar_fits) == len(old.fcar_fits)
    for a, b in zip(new.fcar_fits, old.fcar_fits):
        assert np.array_equal(a.fitted, b.fitted)
        assert np.array_equal(a.residuals, b.residuals)


def mixed_lag_spec(graph, b):
    # sensor 6 needs two own lags, so the support starts later
    specs = [AR1_SPEC] * graph.layout.n_sensors
    specs[6] = AR2_SPEC
    return FcsarSpec(graph, b, tuple(specs))


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("freeze", [False, True])
def test_per_sensor_backfit_matches_cycle_major_oracle(b, freeze):
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    lattice = as_field(layout, simulate_lattice(layout, graph, 150, seed=11))
    cloudy = advective_field(T=120, seed=5)
    for field in (lattice, cloudy):
        g = build_neighbor_graph(field.layout, k=2)
        for spec in (FcsarSpec.uniform(g, b, AR1_SPEC), mixed_lag_spec(g, b)):
            assert_same_fit(
                fit_fcsar(field, spec, LIGHT, freeze_beta_at_zero=freeze),
                oracle_fit_fcsar(field, spec, LIGHT, freeze_beta_at_zero=freeze),
            )


def test_per_sensor_backfit_matches_oracle_on_deficient_designs():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    rng = np.random.default_rng(4)
    z = rng.standard_normal((16, 120))
    # sensors 0, 1 and 5 see one series at both neighbor slots
    z[0] = z[1] = z[4] = z[2]
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    new = fit_fcsar(as_field(layout, z), spec, LIGHT)
    assert new.deficient_sensors == ("s00", "s01", "s05")
    assert_same_fit(new, oracle_fit_fcsar(as_field(layout, z), spec, LIGHT))
    strict = FcarOptions(n_knots=8, strict_rank=True)
    messages = []
    for fit in (fit_fcsar, oracle_fit_fcsar):
        with pytest.raises(ValueError, match="collinear") as exc:
            fit(as_field(layout, z), spec, strict)
        messages.append(str(exc.value))
    assert messages[0] == messages[1] == "collinear neighbor regressors for sensor 's00'"


# ---------------------------------------------------------------- invariances


def layout_field(kind, seed=8):
    """Advective field on the 4x4 grid, or on that grid jittered by up to 20 m.

    ``grid-duplicated`` copies one series into sensors s00, s01 and s04, so
    s00, s01 and s05 see it at both neighbor slots and lose rank.
    """
    layout = small_layout(90.0)
    if kind == "jittered":
        jitter = np.random.default_rng(seed).uniform(-20.0, 20.0, layout.xy.shape)
        layout = SensorLayout(layout.ids, layout.xy + jitter)
    field = simulate_field(
        FieldSimConfig(layout, 120, regime="partly_cloudy", mode="advective", seed=seed)
    )
    if kind == "grid-duplicated":
        z = field.values.copy()
        z[0] = z[1] = z[4] = z[2]
        field = field.replace_values(z)
    return field


def fit_on(field, b):
    graph = build_neighbor_graph(field.layout, k=2)
    return fit_fcsar(field, FcsarSpec.uniform(graph, b, AR1_SPEC), LIGHT)


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("kind", ["grid", "jittered", "grid-duplicated"])
def test_reordering_the_sensors_reorders_the_fit(kind, b):
    field = layout_field(kind)
    base = fit_on(field, b)
    if kind == "grid-duplicated":
        assert base.deficient_sensors == ("s00", "s01", "s05")
    S = field.n_sensors
    for perm in (np.arange(S)[::-1], np.random.default_rng(3).permutation(S)):
        layout = SensorLayout(
            tuple(field.layout.ids[i] for i in perm), field.layout.xy[perm]
        )
        values = field.values[perm]
        moved = fit_on(SpatioTemporalField(layout, field.timestamps, values, "detrended"), b)
        assert np.array_equal(moved.beta, base.beta[perm])
        assert np.array_equal(moved.fitted_values, base.fitted_values[perm], equal_nan=True)
        assert np.array_equal(moved.residuals, base.residuals[perm], equal_nan=True)
        assert moved.support_start == base.support_start
        # reported in layout order, which the permutation changes
        assert sorted(moved.deficient_sensors) == sorted(base.deficient_sensors)
        for i, fit in zip(perm, moved.fcar_fits):
            assert np.array_equal(fit.residuals, base.fcar_fits[i].residuals)


@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("kind", ["grid", "jittered"])
def test_scaling_the_coordinates_leaves_the_fit_unchanged(kind, b):
    field = layout_field(kind)
    layout = SensorLayout(field.layout.ids, 4.0 * field.layout.xy)
    scaled = SpatioTemporalField(layout, field.timestamps, field.values, "detrended")
    assert_same_fit(fit_on(scaled, b), fit_on(field, b))


def test_fit_is_deterministic():
    field = advective_field(T=120, seed=4)
    graph = build_neighbor_graph(field.layout, k=2)
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    a = fit_fcsar(field, spec, LIGHT)
    b = fit_fcsar(field, spec, LIGHT)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(
        a.fitted_values[:, a.support_start :], b.fitted_values[:, b.support_start :]
    )


def test_deeper_neighbor_lag_never_worse_in_sample():
    layout = small_layout(90.0)
    graph = build_neighbor_graph(layout, k=2)
    fields = [advective_field(T=144, seed=s) for s in range(3)]
    fields.append(separable_field(T=144, seed=0))
    rng = np.random.default_rng(42)
    fields.append(as_field(layout, rng.standard_normal((16, 144))))
    for field in fields:
        f1 = fit_fcsar(field, FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)
        f2 = fit_fcsar(field, FcsarSpec.uniform(graph, 2, AR1_SPEC), LIGHT)
        common = max(f1.support_start, f2.support_start)
        assert f2.rmse(common) <= f1.rmse(common) + 1e-9


# ---------------------------------------------------------------- separable


def test_separable_order_validated():
    field = separable_field(T=100)
    graph = build_neighbor_graph(field.layout, k=2)
    with pytest.raises(ValueError, match="order"):
        fit_separable(field, "time_first", graph, AR1_SPEC, LIGHT)


def test_separable_decomposition_both_orders():
    field = advective_field(T=120, seed=2)
    graph = build_neighbor_graph(field.layout, k=2)
    for order in ("space_then_time", "time_then_space"):
        fit = fit_separable(field, order, graph, AR1_SPEC, LIGHT)
        t0 = fit.support_start
        recon = fit.fitted_values[:, t0:] + fit.residuals[:, t0:]
        assert np.max(np.abs(recon - field.values[:, t0:])) < 1e-12
        assert fit.combined_rmse > 0.0
        assert fit.first_stage_rmse > 0.0


def test_separable_orders_agree_on_factorizable_field():
    # independent spatial and temporal factors: either order should work
    for seed in (3, 4):
        field = separable_field(T=144, seed=seed)
        graph = build_neighbor_graph(field.layout, k=2)
        st = fit_separable(field, "space_then_time", graph, AR1_SPEC)
        ts = fit_separable(field, "time_then_space", graph, AR1_SPEC)
        common = max(st.support_start, ts.support_start)
        a, b = st.rmse(common), ts.rmse(common)
        assert abs(a - b) / min(a, b) < 0.10


def test_space_first_beats_time_first_on_advected_field():
    for seed in range(3):
        field = advective_field(T=144, spacing=30.0, seed=seed)
        graph = build_neighbor_graph(field.layout, k=2)
        st = fit_separable(field, "space_then_time", graph, AR1_SPEC)
        ts = fit_separable(field, "time_then_space", graph, AR1_SPEC)
        common = max(st.support_start, ts.support_start)
        assert st.rmse(common) < ts.rmse(common)


def test_coupled_model_beats_both_factored_orders_at_resonance():
    # advection step equal to the grid spacing: lagged neighbors are
    # maximally informative and the coupled model leads the ordering
    for seed in range(3):
        field = advective_field(T=200, spacing=90.0, corr_length=120.0, seed=seed)
        graph = build_neighbor_graph(field.layout, k=2)
        st = fit_separable(field, "space_then_time", graph, AR1_SPEC)
        ts = fit_separable(field, "time_then_space", graph, AR1_SPEC)
        f2 = fit_fcsar(field, FcsarSpec.uniform(graph, 2, AR1_SPEC))
        common = max(st.support_start, ts.support_start, f2.support_start)
        assert f2.rmse(common) < st.rmse(common) < ts.rmse(common)


def test_separable_fit_deterministic_and_traces_sized():
    field = advective_field(T=120, seed=9)
    graph = build_neighbor_graph(field.layout, k=2)
    a = fit_separable(field, "space_then_time", graph, AR1_SPEC, LIGHT)
    b = fit_separable(field, "space_then_time", graph, AR1_SPEC, LIGHT)
    assert np.array_equal(
        a.residuals[:, a.support_start :], b.residuals[:, b.support_start :]
    )
    assert a.sar_trace.rho.size == 120  # space-first sees every column
    ts = fit_separable(field, "time_then_space", graph, AR1_SPEC, LIGHT)
    assert ts.sar_trace.rho.size == 120 - ts.support_start


# ---------------------------------------------------------------- prediction


def test_predict_constant_neighbors_reproduce_level():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    S, T = 16, 50
    field = as_field(layout, np.full((S, T), 10.0))
    fit = FcsarFit(
        spec=spec,
        beta=np.full((S, 2, 1), 0.5),
        fcar_fits=(),
        fitted_values=np.full((S, T), np.nan),
        residuals=np.full((S, T), np.nan),
        support_start=1,
    )
    pred = predict_missing_sensor(fit, field, "t00", (47.0, 16.0))
    assert np.isnan(pred[0])
    assert np.allclose(pred[1:], 10.0, atol=1e-12)


def test_predict_identical_field_tracks_common_series():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(300)) * 0.1
    x -= x.mean()
    field = as_field(layout, np.tile(x, (16, 1)))
    fit = fit_fcsar(field, FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)
    pred = predict_missing_sensor(fit, field, "t99", (45.0, 45.0))
    # prediction is a scaled lag-1 copy of the common series
    corr = np.corrcoef(pred[1:], x[:-1])[0, 1]
    assert corr > 0.99


def test_predict_rejects_training_id_and_coincident_coords():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = simulate_lattice(layout, graph, 100, seed=0)
    field = as_field(layout, z)
    fit = fit_fcsar(field, FcsarSpec.uniform(graph, 1, AR1_SPEC), LIGHT)
    with pytest.raises(ValueError, match="training layout"):
        predict_missing_sensor(fit, field, "s00", (500.0, 500.0))
    with pytest.raises(ValueError, match="coincides"):
        predict_missing_sensor(fit, field, "t00", tuple(layout.xy[5]))


def test_predict_tied_distances_use_mean_coefficients():
    layout = small_layout()  # spacing 30
    graph = build_neighbor_graph(layout, k=2)
    spec = FcsarSpec.uniform(graph, 1, AR1_SPEC)
    S, T = 16, 40
    rng = np.random.default_rng(8)
    beta = rng.normal(size=(S, 2, 1))
    z = rng.standard_normal((S, T))
    field = as_field(layout, z)
    fit = FcsarFit(
        spec=spec,
        beta=beta,
        fcar_fits=(),
        fitted_values=np.full((S, T), np.nan),
        residuals=np.full((S, T), np.nan),
        support_start=1,
    )
    # center of a grid cell: four equidistant training sensors
    target = (15.0, 15.0)
    pred = predict_missing_sensor(fit, field, "t00", target)
    d = np.hypot(layout.xy[:, 0] - 15.0, layout.xy[:, 1] - 15.0)
    order = sorted(range(S), key=lambda i: (d[i], layout.ids[i]))
    nn = order[:2]
    bbar = beta.mean(axis=0)
    expected = bbar[0, 0] * z[nn[0], :-1] + bbar[1, 0] * z[nn[1], :-1]
    assert np.allclose(pred[1:], expected, atol=1e-12)


def test_predict_nan_head_matches_lag_depth():
    layout = small_layout()
    graph = build_neighbor_graph(layout, k=2)
    z = simulate_lattice(layout, graph, 120, seed=2)
    field = as_field(layout, z)
    fit = fit_fcsar(field, FcsarSpec.uniform(graph, 2, AR1_SPEC), LIGHT)
    pred = predict_missing_sensor(fit, field, "t00", (45.0, 45.0))
    assert np.all(np.isnan(pred[:2]))
    assert np.all(np.isfinite(pred[2:]))


def test_predict_beats_interpolation_on_cloudy_field():
    field = advective_field(T=144, spacing=90.0, corr_length=60.0, seed=0)
    layout = field.layout
    err_model, err_interp = [], []
    for i, sid in enumerate(layout.ids):
        keep = [s for s in layout.ids if s != sid]
        sub = field.subset(keep)
        g15 = build_neighbor_graph(sub.layout, k=2)
        fit = fit_fcsar(sub, FcsarSpec.uniform(g15, 1, AR1_SPEC))
        pred = predict_missing_sensor(fit, sub, sid, tuple(layout.xy[i]))
        truth = field.values[i]
        m = np.isfinite(pred)
        err_model.append(np.sqrt(np.mean((pred[m] - truth[m]) ** 2)))
        nn = natural_neighbor_predict(field, sub.layout, sid)
        err_interp.append(np.sqrt(np.mean((nn.values[m] - truth[m]) ** 2)))
    ratio = np.mean(err_model) / np.mean(err_interp)
    assert ratio < 1.0


# ---------------------------------------------------------------- diagnostic


def test_diagnostic_reports_common_support_rmses():
    field = advective_field(T=120, seed=5)
    graph = build_neighbor_graph(field.layout, k=2)
    rep = separability_diagnostic(field, graph, AR1_SPEC, LIGHT, label="adv-5")
    assert rep.label == "adv-5"
    st = fit_separable(field, "space_then_time", graph, AR1_SPEC, LIGHT)
    f2 = fit_fcsar(field, FcsarSpec.uniform(graph, 2, AR1_SPEC), LIGHT)
    common = max(st.support_start, f2.support_start)
    assert rep.st_rmse == pytest.approx(st.rmse(common), rel=1e-12)
    assert rep.fcsar_b2_rmse == pytest.approx(f2.rmse(common), rel=1e-12)
    assert rep.order_ratio == pytest.approx(
        max(rep.st_rmse, rep.ts_rmse) / min(rep.st_rmse, rep.ts_rmse), rel=1e-12
    )


def test_diagnostic_flags_advected_field():
    field = advective_field(T=120, spacing=30.0, corr_length=360.0, seed=0)
    graph = build_neighbor_graph(field.layout, k=2)
    rep = separability_diagnostic(field, graph, AR2_SPEC)
    assert rep.order_ratio > 1.5
    assert rep.verdict == "separability not supported"


def test_diagnostic_accepts_factorizable_field():
    field = separable_field(T=144, corr_length=60.0, seed=0)
    graph = build_neighbor_graph(field.layout, k=2)
    rep = separability_diagnostic(field, graph, AR1_SPEC)
    assert rep.order_ratio < 1.5
    assert rep.verdict == "separability plausible"


def test_separability_csv_roundtrip(tmp_path):
    field = separable_field(T=100, seed=1)
    graph = build_neighbor_graph(field.layout, k=2)
    rep = separability_diagnostic(field, graph, AR1_SPEC, LIGHT, label="sep-1")
    path = tmp_path / "diag.csv"
    write_separability_csv([rep], path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "st_rmse", "ts_rmse", "fcsar_b1_rmse", "fcsar_b2_rmse"]
    assert rows[1][0] == "sep-1"
    assert float(rows[1][1]) == pytest.approx(rep.st_rmse, rel=1e-9)
    assert float(rows[1][4]) == pytest.approx(rep.fcsar_b2_rmse, rel=1e-9)
