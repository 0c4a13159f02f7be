"""Tests for the spline-backfitted kernel estimator of coefficient curves."""

import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylattice import fcar
from skylattice.core import kernel_values
from skylattice.fcar import (
    FcarOptions,
    FcarSpec,
    SplineBasis,
    UTransform,
    basis_eval,
    default_knot_count,
    effective_params,
    fit_fcar,
    forecast_fcar,
    pseudo_responses,
    rule_of_thumb_bandwidth,
    sbk_estimate,
    select_fcar_order,
    spline_preestimate,
)
from skylattice.fcsar import FcsarSpec, fit_fcsar
from skylattice.simulation import (
    Expar2Config,
    FieldSimConfig,
    expar2_true_curves,
    simulate_expar2,
    simulate_field,
)
from skylattice import build_neighbor_graph, grid_layout


def ar1_series(T, phi=0.5, seed=0, burn=100, scale=1.0):
    rng = np.random.default_rng(seed)
    x = np.zeros(T + burn)
    eps = rng.standard_normal(T + burn) * scale
    for t in range(1, T + burn):
        x[t] = phi * x[t - 1] + eps[t]
    return x[burn:]


def ar2_series(T, phi1=0.3, phi2=0.4, seed=0, burn=100):
    rng = np.random.default_rng(seed)
    x = np.zeros(T + burn)
    eps = rng.standard_normal(T + burn)
    for t in range(2, T + burn):
        x[t] = phi1 * x[t - 1] + phi2 * x[t - 2] + eps[t]
    return x[burn:]


def tent_matrix(u_unit, n_interior):
    """Independent tent-basis oracle built from interpolated unit vectors."""
    knots = np.linspace(0.0, 1.0, n_interior + 2)
    cols = []
    for k in range(knots.size):
        e = np.zeros(knots.size)
        e[k] = 1.0
        cols.append(np.interp(u_unit, knots, e))
    return np.column_stack(cols)


def central_mask(u_values, series, lo_q=0.05, hi_q=0.95):
    qlo, qhi = np.quantile(series, [lo_q, hi_q])
    return (u_values >= qlo) & (u_values <= qhi)


class TestFcarSpec:
    def test_default_lags_and_components(self):
        spec = FcarSpec(p=2, d=1)
        assert spec.lags == (1, 2)
        assert spec.components == (1, 2)
        assert spec.max_lag == 2

    def test_intercept_prepends_component_zero(self):
        spec = FcarSpec(p=1, d=1, include_intercept_function=True)
        assert spec.components == (0, 1)

    def test_delay_absorbed_drops_the_delay_lag(self):
        spec = FcarSpec.delay_absorbed(2, 1)
        assert spec.include_intercept_function
        assert spec.lags == (2,)
        assert spec.components == (0, 2)
        assert spec.max_lag == 2

    def test_delay_absorbed_keeps_other_lags(self):
        spec = FcarSpec.delay_absorbed(3, 2)
        assert spec.lags == (1, 3)
        assert spec.components == (0, 1, 3)

    def test_lags_are_sorted(self):
        spec = FcarSpec(p=3, d=1, lags=(3, 1))
        assert spec.lags == (1, 3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0, "d": 1},
            {"p": 2, "d": 0},
            {"p": 2, "d": 3},
            {"p": 2, "d": 1, "lags": (1, 1)},
            {"p": 2, "d": 1, "lags": (3,)},
            {"p": 2, "d": 1, "lags": ()},
        ],
    )
    def test_invalid_orders_raise(self, kwargs):
        with pytest.raises(ValueError):
            FcarSpec(**kwargs)

    def test_to_dict_round_trips_through_json(self):
        spec = FcarSpec.delay_absorbed(2, 1)
        d = json.loads(json.dumps(spec.to_dict()))
        assert d["p"] == 2 and d["d"] == 1
        assert d["include_intercept_function"] is True
        assert d["lags"] == [2]


class TestSplineBasis:
    def test_small_basis_value(self):
        basis = SplineBasis(1)
        npt.assert_allclose(basis_eval(basis, 0.25), [0.5, 0.5, 0.0], atol=1e-15)

    def test_knots_equally_spaced(self):
        basis = SplineBasis(3)
        npt.assert_allclose(basis.knots, np.linspace(0, 1, 5), atol=1e-15)
        assert basis.n_funcs == 5

    def test_each_tent_peaks_at_its_knot(self):
        basis = SplineBasis(4)
        vals = basis_eval(basis, basis.knots)
        npt.assert_allclose(vals, np.eye(basis.n_funcs), atol=1e-12)

    def test_at_most_two_nonzero_per_row(self):
        basis = SplineBasis(7)
        rng = np.random.default_rng(3)
        vals = basis_eval(basis, rng.uniform(0, 1, 500))
        assert int(np.max(np.count_nonzero(vals, axis=1))) <= 2

    def test_partition_of_unity_large_sample(self):
        basis = SplineBasis(12)
        rng = np.random.default_rng(11)
        vals = basis_eval(basis, rng.uniform(0, 1, 10_000))
        npt.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=30),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity_property(self, n, u):
        vals = basis_eval(SplineBasis(n), u)
        assert abs(float(np.sum(vals)) - 1.0) < 1e-9
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_u_outside_unit_interval_raises(self):
        with pytest.raises(ValueError, match="0, 1"):
            basis_eval(SplineBasis(2), 1.2)

    def test_nonpositive_knot_count_raises(self):
        with pytest.raises(ValueError):
            SplineBasis(0)


class TestDefaultKnotCount:
    def test_mid_sized_series(self):
        assert default_knot_count(500) == 75

    def test_formula_value(self):
        assert default_knot_count(2000) == round(2000**0.4 * np.log(2000))

    def test_clamped_by_quarter_of_series(self):
        assert default_knot_count(20) == 5
        assert default_knot_count(10) == 2

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            default_knot_count(9)


class TestUTransform:
    def test_endpoints_map_to_unit_interval(self):
        m = UTransform(-2.0, 3.0)
        assert m.to_unit(-2.0) == 0.0
        assert m.to_unit(3.0) == 1.0

    @given(
        lo=st.floats(min_value=-50, max_value=49),
        width=st.floats(min_value=1e-3, max_value=100),
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, lo, width, frac):
        m = UTransform(lo, lo + width)
        u = lo + frac * width
        assert abs(float(m.from_unit(m.to_unit(u))) - u) < 1e-12 * max(1.0, abs(u))

    def test_degenerate_range_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            UTransform(1.0, 1.0)


class TestSplinePreestimate:
    def test_affine_coefficient_recovered_exactly(self):
        # noiseless recursion whose coefficient curve is affine in u, hence
        # inside the tent-basis span for any knot placement
        T = 30
        x = np.empty(T)
        x[0] = 0.8
        for t in range(1, T):
            x[t] = (0.3 + 0.2 * x[t - 1]) * x[t - 1]
        spec = FcarSpec(p=1, d=1)
        basis = SplineBasis(2)
        coeffs = spline_preestimate(x, spec, basis)
        u = x[:-1]
        unit = (u - u.min()) / (u.max() - u.min())
        curve = basis_eval(basis, unit) @ coeffs[:, 0]
        npt.assert_allclose(curve, 0.3 + 0.2 * u, atol=1e-8)

    def test_matches_normal_equations_solution(self):
        x = ar1_series(30, seed=5)
        spec = FcarSpec(p=1, d=1)
        basis = SplineBasis(2)
        coeffs = spline_preestimate(x, spec, basis)
        t = np.arange(1, 30)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        D = tent_matrix(unit, 2) * u[:, None]
        lam = np.linalg.solve(D.T @ D, D.T @ x[t])
        npt.assert_allclose(coeffs[:, 0], lam, atol=1e-8)

    def test_response_scales_linearly(self):
        x = ar1_series(200, seed=9)
        spec = FcarSpec(p=2, d=1)
        basis = SplineBasis(6)
        base = spline_preestimate(x, spec, basis)
        doubled = spline_preestimate(x, spec, basis, response=2.0 * x)
        npt.assert_allclose(doubled, 2.0 * base, atol=1e-9)

    def test_constant_truth_centered_across_replications(self):
        # the under-smoothed pre-estimate is noisy per replication; its
        # pointwise median across replications should sit on the constant
        # truth away from u = 0, where the design value u carries no
        # information about the coefficient
        grid = np.linspace(-1.5, 1.5, 31)
        off_pinch = np.abs(grid) >= 0.35
        reps = []
        for rep in range(50):
            x = ar1_series(2000, seed=4000 + rep)
            basis = SplineBasis(default_knot_count(2000))
            coeffs = spline_preestimate(x, FcarSpec(p=1, d=1), basis)
            u = x[:-1]
            unit = np.clip((grid - u.min()) / (u.max() - u.min()), 0.0, 1.0)
            reps.append(basis_eval(basis, unit) @ coeffs[:, 0])
        med = np.median(np.array(reps), axis=0)
        dev = np.abs(med[off_pinch] - 0.5)
        assert float(dev.max()) < 0.35
        assert float(dev.mean()) < 0.1

    def test_strict_mode_reports_deficient_blocks(self):
        x = np.tile([0.5, 1.5, 2.5], 8)
        spec = FcarSpec(p=1, d=1)
        basis = SplineBasis(2)
        with pytest.raises(ValueError, match="deficient"):
            spline_preestimate(x, spec, basis, strict=True)
        coeffs = spline_preestimate(x, spec, basis)
        assert np.all(np.isfinite(coeffs))

    def test_series_too_short_raises(self):
        x = ar1_series(12, seed=1)
        with pytest.raises(ValueError, match="too short"):
            spline_preestimate(x, FcarSpec(p=1, d=1), SplineBasis(8))

    def test_residuals_orthogonal_to_own_block(self):
        x = ar2_series(300, seed=21)
        spec = FcarSpec(p=2, d=1)
        basis = SplineBasis(4)
        coeffs = spline_preestimate(x, spec, basis)
        t = np.arange(2, x.size)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        B = tent_matrix(unit, 4)
        for c, j in enumerate(spec.components):
            D = B * x[t - j][:, None]
            r = x[t] - D @ coeffs[:, c]
            corr = D.T @ r / (
                np.linalg.norm(D, axis=0) * np.linalg.norm(r) + 1e-300
            )
            assert float(np.max(np.abs(corr))) < 1e-6


class TestPseudoResponses:
    def test_strips_the_other_component(self):
        x = simulate_expar2(Expar2Config(n_times=200, seed=2))
        spec = FcarSpec.delay_absorbed(2, 1)
        basis = SplineBasis(8)
        coeffs = spline_preestimate(x, spec, basis)
        w = pseudo_responses(x, spec, coeffs, 2)
        t = np.arange(2, x.size)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        intercept = basis_eval(basis, unit) @ coeffs[:, 0]
        npt.assert_allclose(w, x[t] - intercept, atol=1e-12)

    def test_zero_coefficients_leave_series_untouched(self):
        x = ar1_series(80, seed=4)
        spec = FcarSpec(p=2, d=1)
        coeffs = np.zeros((6, 2))
        for j in spec.components:
            w = pseudo_responses(x, spec, coeffs, j)
            npt.assert_allclose(w, x[2:], atol=0)

    def test_stripped_parts_sum_to_full_prediction(self):
        x = ar2_series(50, seed=8)
        spec = FcarSpec(p=2, d=1)
        basis = SplineBasis(3)
        coeffs = spline_preestimate(x, spec, basis)
        t = np.arange(2, x.size)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        B = basis_eval(basis, unit)
        full = np.zeros(t.size)
        for c, j in enumerate(spec.components):
            full += (B @ coeffs[:, c]) * x[t - j]
        w1 = pseudo_responses(x, spec, coeffs, 1)
        w2 = pseudo_responses(x, spec, coeffs, 2)
        npt.assert_allclose(2.0 * x[t] - w1 - w2, full, atol=1e-10)

    def test_unknown_target_raises(self):
        x = ar1_series(60, seed=0)
        with pytest.raises(ValueError, match="not a fitted component"):
            pseudo_responses(x, FcarSpec(p=2, d=1), np.zeros((6, 2)), 3)


class TestSbkEstimate:
    def test_constant_coefficient_recovered_exactly(self):
        x = ar1_series(200, seed=6)
        spec = FcarSpec(p=1, d=1)
        pseudo = 0.7 * x[:-1]
        u = x[:-1]
        grid = np.linspace(u.min(), u.max(), 21)
        curve = sbk_estimate(x, pseudo, spec, 1, grid, h=0.5 * float(np.std(u)))
        good = curve.reliable
        assert good.any()
        npt.assert_allclose(curve.estimate[good], 0.7, atol=1e-6)

    def test_matches_hand_rolled_weighted_least_squares(self):
        x = ar1_series(40, seed=13)
        spec = FcarSpec(p=1, d=1)
        t = np.arange(1, 40)
        u = x[t - 1]
        pseudo = x[t]
        u0 = float(np.median(u))
        h = 0.8 * float(np.std(u))
        curve = sbk_estimate(x, pseudo, spec, 1, np.array([u0]), h)
        diff = u - u0
        k = np.where(np.abs(diff / h) <= 1, 0.75 * (1 - (diff / h) ** 2), 0.0) / h
        D = np.column_stack([u, u * diff])
        A = D.T @ (k[:, None] * D)
        b = D.T @ (k * pseudo)
        sol = np.linalg.solve(A, b)
        npt.assert_allclose(curve.estimate[0], sol[0], atol=1e-8)

    def test_bulk_of_central_grid_is_reliable(self):
        x = simulate_expar2(Expar2Config(n_times=500, seed=0))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        for curve in fit.curves:
            central = central_mask(curve.u, x)
            assert float(np.mean(curve.reliable[central])) >= 0.9

    def test_empty_window_flags_unreliable_without_raising(self):
        x = ar1_series(100, seed=7)
        u = x[:-1]
        far = u.max() + 5.0
        grid = np.array([float(np.quantile(u, 0.9)), far])
        curve = sbk_estimate(x, x[1:], FcarSpec(p=1, d=1), 1, grid, h=0.3)
        assert curve.reliable[0]
        assert not curve.reliable[1]
        assert np.isnan(curve.estimate[1])

    def test_extra_band_variance_widens_bands(self):
        x = ar1_series(150, seed=15)
        spec = FcarSpec(p=1, d=1)
        u = x[:-1]
        grid = np.linspace(np.quantile(u, 0.2), np.quantile(u, 0.8), 11)
        h = float(np.std(u)) * 0.6
        plain = sbk_estimate(x, x[1:], spec, 1, grid, h)
        wide = sbk_estimate(
            x, x[1:], spec, 1, grid, h, extra_band_variance=np.full(grid.size, 0.5)
        )
        both = plain.reliable & wide.reliable
        assert np.all(
            (wide.upper - wide.lower)[both] > (plain.upper - plain.lower)[both]
        )

    def test_bad_inputs_raise(self):
        x = ar1_series(60, seed=2)
        spec = FcarSpec(p=1, d=1)
        grid = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError, match="bandwidth"):
            sbk_estimate(x, x[1:], spec, 1, grid, h=0.0)
        with pytest.raises(ValueError, match="not a fitted component"):
            sbk_estimate(x, x[1:], spec, 2, grid, h=0.5)
        with pytest.raises(ValueError, match="length"):
            sbk_estimate(x, x[1:40], spec, 1, grid, h=0.5)


class TestFitFcar:
    def test_exponential_autoregression_residual_variance(self):
        rvs = []
        for seed in range(50):
            x = simulate_expar2(Expar2Config(n_times=500, seed=seed))
            fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
            rvs.append(fit.residual_variance)
        med = float(np.median(rvs))
        assert 0.03 <= med <= 0.058

    def test_bands_cover_true_curves(self):
        cfg = Expar2Config(n_times=500, seed=0)
        x = simulate_expar2(cfg)
        f0, f2 = expar2_true_curves(cfg)
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        fracs = []
        for curve, truth in zip(fit.curves, (f0, f2)):
            central = central_mask(curve.u, x) & curve.reliable
            tv = truth(curve.u[central])
            inside = (curve.lower[central] <= tv) & (tv <= curve.upper[central])
            fracs.append(float(np.mean(inside)))
        assert float(np.mean(fracs)) >= 0.8

    def test_linear_truth_close_to_least_squares(self):
        ratios = []
        for seed in range(9):
            x = ar2_series(1000, seed=3000 + seed)
            fit = fit_fcar(x, FcarSpec(p=2, d=1))
            Y = x[2:]
            D = np.column_stack([x[1:-1], x[:-2]])
            beta, *_ = np.linalg.lstsq(D, Y, rcond=None)
            rv_ls = float(np.mean((Y - D @ beta) ** 2))
            ratios.append(fit.residual_variance / rv_ls)
        assert float(np.median(ratios)) < 1.25

    def test_constant_truth_estimate_is_flat(self):
        # constant-coefficient input should produce a flat curve at the
        # kernel stage's own noise scale; the lag-2 curve is the clean read
        # because its design value is not the functional variable itself
        ranges = []
        for seed in range(50):
            x = ar2_series(2000, seed=1500 + seed)
            fit = fit_fcar(x, FcarSpec(p=2, d=1))
            curve = fit.curves[1]
            central = central_mask(curve.u, x) & curve.reliable
            est = curve.estimate[central]
            ranges.append(float(est.max() - est.min()))
        assert float(np.median(ranges)) < 0.35

    def test_refined_constant_curve_centered_across_replications(self):
        grid = np.linspace(-1.5, 1.5, 31)
        off_pinch = np.abs(grid) >= 0.35
        reps = []
        for rep in range(50):
            x = ar1_series(2000, seed=4000 + rep)
            fit = fit_fcar(x, FcarSpec(p=1, d=1))
            reps.append(fit.coefficient(1, grid))
        med = np.median(np.array(reps), axis=0)
        assert float(np.max(np.abs(med[off_pinch] - 0.5))) < 0.1

    def test_white_noise_finds_no_structure(self):
        for seed in (700, 701, 702):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal(1000)
            fit = fit_fcar(x, FcarSpec(p=1, d=1))
            curve = fit.curves[0]
            central = central_mask(curve.u, x, 0.10, 0.90) & curve.reliable
            inside = (curve.lower[central] <= 0.0) & (0.0 <= curve.upper[central])
            assert float(np.mean(inside)) >= 0.75
            assert float(np.max(np.abs(curve.estimate[central]))) < 3.0

    def test_fitted_plus_residuals_reconstruct_series(self):
        x = simulate_expar2(Expar2Config(n_times=300, seed=5))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        npt.assert_allclose(fit.fitted + fit.residuals, x[fit.t_start :], atol=1e-12)

    def test_t_start_alignment(self):
        x = ar1_series(200, seed=30)
        fit = fit_fcar(x, FcarSpec(p=1, d=1), t_start=10)
        assert fit.t_start == 10
        assert fit.residuals.size == 190

    def test_response_rows_are_the_fit_target(self):
        x = ar1_series(250, seed=31)
        resp = np.sin(x) + 0.1 * x
        fit = fit_fcar(x, FcarSpec(p=1, d=1), response=resp)
        npt.assert_allclose(fit.fitted + fit.residuals, resp[fit.t_start :], atol=1e-12)

    def test_options_are_honored(self):
        x = ar1_series(300, seed=18)
        opts = FcarOptions(n_knots=6, bandwidth=0.4)
        fit = fit_fcar(x, FcarSpec(p=1, d=1), opts)
        assert fit.basis.N == 6
        assert fit.bandwidth == 0.4
        assert fit.curves[0].u.size == fcar.GRID_SIZE

    def test_default_bandwidth_follows_rule_of_thumb(self):
        x = ar1_series(400, seed=19)
        fit = fit_fcar(x, FcarSpec(p=1, d=1))
        assert fit.bandwidth == pytest.approx(
            rule_of_thumb_bandwidth(x[:-1], 400), rel=1e-12
        )

    def test_coefficient_evaluation_interpolates_grid(self):
        x = simulate_expar2(Expar2Config(n_times=400, seed=9))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        curve = fit.curves[1]
        mid = 0.5 * (curve.u[40] + curve.u[41])
        val = fit.coefficient(2, mid)
        lo = min(fit.coefficient(2, curve.u[40]), fit.coefficient(2, curve.u[41]))
        hi = max(fit.coefficient(2, curve.u[40]), fit.coefficient(2, curve.u[41]))
        assert lo - 1e-12 <= float(val) <= hi + 1e-12

    def test_to_dict_is_json_ready(self):
        x = simulate_expar2(Expar2Config(n_times=300, seed=12))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        blob = json.loads(json.dumps(fit.to_dict()))
        assert blob["spec"]["lags"] == [2]
        assert len(blob["curves"]) == 2
        assert blob["residuals"]["n"] == fit.n_obs

    def test_rank_flag_clean_when_all_intervals_populated(self):
        # the default knot count leaves empty intervals in the tails of a
        # concentrated series, which the flag reports; a coarse basis with
        # every interval populated fits at full rank
        x = simulate_expar2(Expar2Config(n_times=300, seed=12))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1), FcarOptions(n_knots=8))
        assert not fit.rank_deficient

    def test_bad_inputs_raise(self):
        spec = FcarSpec(p=1, d=1)
        with pytest.raises(ValueError, match="1-D"):
            fit_fcar(np.zeros((10, 2)), spec)
        bad = ar1_series(100, seed=1)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fit_fcar(bad, spec)
        with pytest.raises(ValueError, match="constant"):
            fit_fcar(np.ones(100), spec)


class TestEffectiveParams:
    def test_infinite_bandwidth_limit_is_two_per_curve(self):
        x = simulate_expar2(Expar2Config(n_times=400, seed=3))
        fit1 = fit_fcar(x, FcarSpec(p=1, d=1), FcarOptions(bandwidth=1e6))
        assert effective_params(fit1) == pytest.approx(2.0, abs=0.05)
        fit2 = fit_fcar(x, FcarSpec.delay_absorbed(2, 1), FcarOptions(bandwidth=1e6))
        assert effective_params(fit2) == pytest.approx(4.0, abs=0.1)

    def test_matches_dense_smoother_trace(self):
        x = ar1_series(60, seed=23)
        spec = FcarSpec(p=1, d=1)
        t = np.arange(1, 60)
        u = x[t - 1]
        c1 = u
        pseudo = x[t]
        h = float(np.std(u))
        curve = sbk_estimate(x, pseudo, spec, 1, np.array([0.0]), h)
        trace = 0.0
        for i in range(t.size):
            diff = u - u[i]
            k = np.where(np.abs(diff / h) <= 1, 0.75 * (1 - (diff / h) ** 2), 0.0) / h
            D = np.column_stack([c1, c1 * diff])
            A = D.T @ (k[:, None] * D)
            Li = np.linalg.solve(A, (k[:, None] * D).T)[0]
            trace += c1[i] * Li[i]
        assert curve.smoother_trace == pytest.approx(trace, abs=1e-10)

    def test_monotone_in_bandwidth(self):
        x = simulate_expar2(Expar2Config(n_times=400, seed=3))
        spec = FcarSpec.delay_absorbed(2, 1)
        vals = [
            effective_params(fit_fcar(x, spec, FcarOptions(bandwidth=h)))
            for h in (0.25, 0.5, 1.0)
        ]
        assert vals[0] > vals[1] > vals[2]


class TestForecast:
    def test_one_step_matches_plug_in_formula(self):
        x = simulate_expar2(Expar2Config(n_times=400, seed=14))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        pred = forecast_fcar(fit, x, 1)
        lo, hi = fit.reliable_u_range
        u = min(max(x[-1], lo), hi)
        manual = float(fit.coefficient(0, u)) + float(fit.coefficient(2, u)) * x[-2]
        assert pred.shape == (1,)
        assert pred[0] == pytest.approx(manual, abs=1e-8)

    def test_multi_step_chains_predictions(self):
        x = simulate_expar2(Expar2Config(n_times=400, seed=14))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        pred = forecast_fcar(fit, x, 3)
        buf = list(x)
        for step in range(3):
            one = forecast_fcar(fit, buf, 1)[0]
            assert pred[step] == pytest.approx(one, abs=1e-12)
            buf.append(one)

    def test_near_oracle_one_step_accuracy(self):
        ratios = []
        for seed in range(9):
            cfg = Expar2Config(n_times=2300, seed=100 + seed)
            x = simulate_expar2(cfg)
            f0, f2 = expar2_true_curves(cfg)
            fit = fit_fcar(x[:2000], FcarSpec.delay_absorbed(2, 1))
            errs_fit, errs_true = [], []
            for t in range(2000, 2290):
                pred = forecast_fcar(fit, x[:t], 1)[0]
                u = np.array([x[t - 1]])
                oracle = f0(u)[0] + f2(u)[0] * x[t - 2]
                errs_fit.append((x[t] - pred) ** 2)
                errs_true.append((x[t] - oracle) ** 2)
            ratios.append(float(np.mean(errs_fit) / np.mean(errs_true)))
        assert float(np.median(ratios)) < 1.5

    def test_functional_variable_clamps_to_reliable_range(self):
        x = simulate_expar2(Expar2Config(n_times=400, seed=14))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        hist = np.concatenate([x, [50.0]])
        pred = forecast_fcar(fit, hist, 1)
        lo, hi = fit.reliable_u_range
        manual = float(fit.coefficient(0, hi)) + float(fit.coefficient(2, hi)) * hist[-2]
        assert pred[0] == pytest.approx(manual, abs=1e-8)

    def test_bad_inputs_raise(self):
        x = simulate_expar2(Expar2Config(n_times=300, seed=1))
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        with pytest.raises(ValueError, match="steps"):
            forecast_fcar(fit, x, 0)
        with pytest.raises(ValueError, match="history"):
            forecast_fcar(fit, x[:1], 1)


class TestOrderSelection:
    def test_deterministic(self):
        x = simulate_expar2(Expar2Config(n_times=300, seed=4))
        a = select_fcar_order(x, p_max=2)
        b = select_fcar_order(x, p_max=2)
        assert a == b

    def test_returns_valid_order(self):
        x = ar1_series(300, seed=2)
        spec = select_fcar_order(x, p_max=3)
        assert 1 <= spec.d <= spec.p <= 3


class TestNormalEquationsProperty:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_full_rank_solution_matches_least_squares(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, 25)
        if np.ptp(x[:-1]) < 0.5:
            return
        t = np.arange(1, 25)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        D = tent_matrix(unit, 1) * u[:, None]
        if np.linalg.matrix_rank(D) < 3 or np.linalg.cond(D) > 1e6:
            return
        coeffs = spline_preestimate(x, FcarSpec(p=1, d=1), SplineBasis(1))
        lam, *_ = np.linalg.lstsq(D, x[t], rcond=None)
        npt.assert_allclose(coeffs[:, 0], lam, atol=1e-8)


# Dense kernel sums over every observation, kept as the oracle for
# the windowed sums in skylattice.fcar.


def dense_local_linear(u_obs, c1, w, u_eval, h):
    min_local_obs = fcar.MIN_LOCAL_OBS
    n_eval = u_eval.size
    est = np.full(n_eval, np.nan)
    varu = np.full(n_eval, np.nan)
    a11inv = np.full(n_eval, np.nan)
    reliable = np.zeros(n_eval, dtype=bool)
    raw_reliable = np.zeros(n_eval, dtype=bool)
    info_wt = c1**2 / max(float(np.mean(c1**2)), 1e-300)
    for lo in range(0, n_eval, 256):
        sl = slice(lo, min(lo + 256, n_eval))
        diff = u_obs[None, :] - u_eval[sl, None]
        k = kernel_values(diff / h) / h
        in_bw = np.abs(diff) <= h
        n_raw = np.count_nonzero(in_bw, axis=1)
        n_info = (in_bw * info_wt[None, :]).sum(axis=1)
        c2 = c1[None, :] * diff
        kc1 = k * c1[None, :] ** 2
        a00 = kc1.sum(axis=1)
        a01 = (k * c1[None, :] * c2).sum(axis=1)
        a11 = (k * c2 * c2).sum(axis=1)
        b0 = (k * c1[None, :] * w[None, :]).sum(axis=1)
        b1 = (k * c2 * w[None, :]).sum(axis=1)
        det = a00 * a11 - a01 * a01
        scale = np.abs(a00 * a11) + a01 * a01
        ok = det > 1e-12 * np.maximum(scale, 1e-300)
        good = np.where(ok)[0]
        est[sl][good] = (a11[good] * b0[good] - a01[good] * b1[good]) / det[good]
        # sandwich: first diagonal entry of A^-1 B A^-1
        k2 = k * k
        s00 = (k2 * c1[None, :] ** 2).sum(axis=1)
        s01 = (k2 * c1[None, :] * c2).sum(axis=1)
        s11 = (k2 * c2 * c2).sum(axis=1)
        num = (
            a11[good] ** 2 * s00[good]
            - 2.0 * a11[good] * a01[good] * s01[good]
            + a01[good] ** 2 * s11[good]
        )
        varu[sl][good] = num / det[good] ** 2
        a11inv[sl][good] = a11[good] / det[good]
        reliable[sl] = ok & (n_raw >= min_local_obs) & (n_info >= min_local_obs)
        raw_reliable[sl] = ok & (n_raw >= min_local_obs)
    return est, varu, reliable, raw_reliable, a11inv


def dense_local_transfer(u_obs, c1, other, u_eval, h):
    n_eval = u_eval.size
    mult = np.full(n_eval, np.nan)
    for lo in range(0, n_eval, 256):
        sl = slice(lo, min(lo + 256, n_eval))
        diff = u_obs[None, :] - u_eval[sl, None]
        k = kernel_values(diff / h) / h
        num = (k * c1[None, :] * other[None, :]).sum(axis=1)
        den = (k * c1[None, :] ** 2).sum(axis=1)
        good = den > 0.0
        mult[sl] = np.divide(num, den, out=np.full(den.shape, np.nan), where=good)
    return mult


WINDOW_CASES = ["random70", "random478", "ties", "dyadic", "outside", "ulp"]


def ulp_edge_sample(rng, h):
    """Two centers near 0 and points an ulp beyond center + h and center - h
    that the |diff| <= h test still accepts, plus points well inside.

    Rounding in u - center only shows when |center| < h, where the
    difference is not exact."""
    centers, edges = [], []
    for direction in (np.inf, -np.inf):
        e, v = 0.0, np.inf
        while abs(v - e) > h:
            e = rng.uniform(-0.2 * h, 0.2 * h)
            v = np.nextafter(e + np.copysign(h, direction), direction)
        centers.append(e)
        edges.append(v)
    return np.array(centers), np.concatenate([edges, rng.uniform(-h, h, 6)])


def window_case(name, design):
    """Observations, design column, response, evaluation points, bandwidth."""
    rng = np.random.default_rng(WINDOW_CASES.index(name))
    h = 0.3
    if name == "random70":
        # wider than the u range: some windows hold every observation
        u = rng.standard_normal(70)
        h = 1.5 * float(np.ptp(u))
    elif name == "random478":
        u = rng.standard_normal(478)
    elif name == "ties":
        u, h = np.round(4.0 * rng.standard_normal(200)) / 4.0, 0.5
    elif name == "dyadic":
        u, h = rng.integers(-8, 9, 120) / 8.0, 0.25
    elif name == "outside":
        u = rng.uniform(-1.0, 1.0, 90)
    else:
        centers, u = ulp_edge_sample(rng, h)
    grid = np.linspace(u.min() - 2 * h, u.max() + 2 * h, 101)
    if name in ("ties", "dyadic"):
        # exact binary fractions: observations sit exactly at eval +- h
        grid = np.round(grid * 8.0) / 8.0
    elif name == "outside":
        grid = np.array([-5.0, -2.0, -1.31, 1.31, 2.0, 5.0])
    elif name == "ulp":
        # no wider grid window in the block to cover a missing edge point
        grid = centers
    c1 = {"lag": u, "other": rng.standard_normal(u.size), "intercept": np.ones(u.size)}[
        design
    ]
    w = 0.5 * c1 + 0.3 * c1 * u**2 + 0.2 * rng.standard_normal(u.size)
    return u, c1, w, np.concatenate([grid, u]), h


# The kernel the windowed sums use, named in the test ids, with the
# half-width of its support in units of the bandwidth.
KERNEL_SUPPORT = {"epanechnikov": 1.0}


class TestKernelWindows:
    """The windowed kernel sums against the dense sums over all observations."""

    @pytest.mark.parametrize("kernel", KERNEL_SUPPORT)
    def test_kernel_is_zero_beyond_its_support(self, kernel):
        z = np.linspace(-20.0, 20.0, 4001)
        beyond = np.abs(z) > KERNEL_SUPPORT[kernel]
        assert np.all(kernel_values(z[beyond]) == 0.0)

    @pytest.mark.parametrize("name", WINDOW_CASES)
    @pytest.mark.parametrize("kernel", KERNEL_SUPPORT)
    def test_windows_hold_every_weighted_observation(self, kernel, name):
        u, _, _, u_eval, h = window_case(name, "other")
        seen = np.zeros(u_eval.size, dtype=int)
        widest = 0
        for sl, idx, diff, k in fcar._kernel_windows(u, u_eval, h):
            npt.assert_array_equal(diff, u[idx] - u_eval[sl, None])
            for row, e in zip(idx, u_eval[sl]):
                assert np.unique(row).size == row.size
                dense_diff = u - e
                weighted = kernel_values(dense_diff / h) != 0
                needed = (np.abs(dense_diff) <= h) | weighted
                assert set(np.flatnonzero(needed)) <= set(row.tolist())
            seen[sl] += 1
            widest = max(widest, idx.shape[1])
        assert np.all(seen == 1)
        if name == "random70":
            assert widest == u.size

    @pytest.mark.parametrize("design", ["lag", "other", "intercept"])
    @pytest.mark.parametrize("name", WINDOW_CASES)
    @pytest.mark.parametrize("kernel", KERNEL_SUPPORT)
    def test_local_linear_matches_dense(self, kernel, name, design):
        u, c1, w, u_eval, h = window_case(name, design)
        got = fcar._local_linear(u, c1, w, u_eval, h)
        want = dense_local_linear(u, c1, w, u_eval, h)
        est, varu, reliable, raw_reliable, a11inv = got
        npt.assert_array_equal(reliable, want[2])
        npt.assert_array_equal(raw_reliable, want[3])
        for mine, ref in zip((est, varu, a11inv), (want[0], want[1], want[4])):
            npt.assert_array_equal(np.isnan(mine), np.isnan(ref))
            npt.assert_allclose(mine, ref, rtol=1e-10, atol=0, equal_nan=True)
        if name == "outside":
            assert np.isnan(est[:6]).all() and not raw_reliable[:6].any()

    @pytest.mark.parametrize("name", WINDOW_CASES)
    @pytest.mark.parametrize("kernel", KERNEL_SUPPORT)
    def test_local_transfer_matches_dense(self, kernel, name):
        u, c1, other, u_eval, h = window_case(name, "other")
        got = fcar._local_transfer(u, c1, other, u_eval, h)
        want = dense_local_transfer(u, c1, other, u_eval, h)
        npt.assert_allclose(got, want, rtol=1e-10, atol=0, equal_nan=True)


def assert_fits_agree(got, want):
    """Windowed and dense fits agree to 1e-10 x max(1, |dense|), flags exactly."""

    def close(a, b):
        npt.assert_allclose(a, b, rtol=1e-10, atol=1e-10, equal_nan=True)

    assert len(got.curves) == len(want.curves)
    for mine, ref in zip(got.curves, want.curves):
        for name in ("u", "estimate", "lower", "upper", "obs_estimate"):
            close(getattr(mine, name), getattr(ref, name))
        close(mine.sigma2, ref.sigma2)
        close(mine.smoother_trace, ref.smoother_trace)
        npt.assert_array_equal(mine.reliable, ref.reliable)
        npt.assert_array_equal(mine.obs_reliable, ref.obs_reliable)
    close(got.fitted, want.fitted)
    close(got.residuals, want.residuals)


@pytest.fixture
def dense_kernel_stage(monkeypatch):
    """Run fits with the dense kernel sums in place of the windowed ones."""

    def use_dense():
        monkeypatch.setattr(fcar, "_local_linear", dense_local_linear)
        monkeypatch.setattr(fcar, "_local_transfer", dense_local_transfer)

    return use_dense


class TestWindowedFitOracle:
    def test_fit_fcar_matches_dense_fit(self, dense_kernel_stage):
        x = simulate_expar2(Expar2Config(n_times=500, seed=0))
        spec = FcarSpec.delay_absorbed(2, 1)
        windowed = fit_fcar(x, spec)
        dense_kernel_stage()
        assert_fits_agree(windowed, fit_fcar(x, spec))

    def test_fit_fcsar_matches_dense_fit(self, dense_kernel_stage):
        layout = grid_layout(4, 4, spacing=90.0)
        field = simulate_field(
            FieldSimConfig(layout, 144, regime="partly_cloudy", mode="advective")
        )
        spec = FcsarSpec.uniform(
            build_neighbor_graph(layout, 2), 2, FcarSpec.delay_absorbed(2, 1)
        )
        windowed = fit_fcsar(field, spec)
        dense_kernel_stage()
        dense = fit_fcsar(field, spec)
        npt.assert_allclose(windowed.beta, dense.beta, rtol=1e-10, atol=1e-10)
        for mine, ref in zip(windowed.fcar_fits, dense.fcar_fits):
            assert_fits_agree(mine, ref)
        npt.assert_allclose(
            windowed.fitted_values, dense.fitted_values, rtol=1e-10, atol=1e-10
        )
        npt.assert_allclose(windowed.residuals, dense.residuals, rtol=1e-10, atol=1e-10)

    def test_band_variance_matches_dense_propagation(self):
        # rebuild each band from the dense sums and the explicit quadratic
        # form b(u)' G b(u) of the spline pre-estimate variance
        x = simulate_expar2(Expar2Config(n_times=500, seed=0))
        spec = FcarSpec.delay_absorbed(2, 1)
        fit = fit_fcar(x, spec)
        t, u_raw, umap = fcar._fit_rows(x, spec)
        prefit = fcar._spline_lstsq(x, spec, fit.basis, None, None, False)
        grid = fit.curves[0].u
        grid_B = basis_eval(fit.basis, umap.to_unit(grid))
        h = fit.bandwidth
        for j, curve in zip(spec.components, fit.curves):
            c1 = fcar._regressor(x, t, j)
            pseudo = pseudo_responses(x, spec, prefit.coeffs, j)
            varu = dense_local_linear(u_raw, c1, pseudo, grid, h)[1]
            vprop = np.zeros(grid.size)
            for oc, o in enumerate(spec.components):
                if o == j:
                    continue
                mult = dense_local_transfer(
                    u_raw, c1, fcar._regressor(x, t, o), grid, h
                )
                quad = np.einsum("ij,jk,ik->i", grid_B, prefit.gram_invs[oc], grid_B)
                mult = np.where(np.isfinite(mult), mult, 0.0)
                vprop += prefit.sigma2s[oc] * quad * mult**2
            half = 1.959963984540054 * np.sqrt(curve.sigma2 * varu + vprop)
            npt.assert_allclose(
                curve.upper - curve.estimate, half, rtol=1e-9, equal_nan=True
            )


class TestLocalLinearPermutation:
    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_observation_order_does_not_matter(self, data, seed):
        # distinct u values, so the rows sort the same whatever their input
        # order; tied values keep their input order, which moves their sums
        # by rounding (the dense comparison covers ties)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 150))
        u = rng.standard_normal(n)
        c1 = rng.standard_normal(n)
        w = 0.5 * c1 + 0.2 * rng.standard_normal(n)
        u_eval = np.concatenate([np.linspace(u.min() - 0.5, u.max() + 0.5, 31), u])
        perm = np.array(data.draw(st.permutations(range(n))))
        base = fcar._local_linear(u, c1, w, u_eval, 0.4)
        moved = fcar._local_linear(u[perm], c1[perm], w[perm], u_eval, 0.4)
        npt.assert_array_equal(moved[2], base[2])
        npt.assert_array_equal(moved[3], base[3])
        for i in (0, 1, 4):
            npt.assert_allclose(moved[i], base[i], rtol=1e-12, atol=0, equal_nan=True)
