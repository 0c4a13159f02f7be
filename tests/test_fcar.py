"""Tests for the spline-backfitted kernel estimator of coefficient curves."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skylattice import fcar
from kernel_oracle import _kernel_windows, kernel_values
from skylattice.core import _moment_smoother, grid_layout
from skylattice.fcar import (
    FcarOptions,
    FcarSpec,
    SplineBasis,
    UTransform,
    basis_eval,
    default_knot_count,
    effective_params,
    fit_fcar,
    pseudo_responses,
    rule_of_thumb_bandwidth,
    sbk_estimate,
    spline_preestimate,
)
from skylattice.evaluation import CrossvalPlan, crossval
from skylattice.fcsar import FcsarSpec, fit_fcsar, fit_separable
from skylattice.simulation import (
    Expar2Config,
    FieldSimConfig,
    expar2_true_curves,
    simulate_expar2,
    simulate_field,
)
from skylattice.spatial import build_neighbor_graph


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
        assert spec.components == (1, 2)
        assert spec.max_lag == 2

    def test_delay_absorbed_drops_the_delay_lag(self):
        spec = FcarSpec.delay_absorbed(2, 1)
        assert spec.absorb_delay
        assert spec.components == (0, 2)
        assert spec.max_lag == 2

    def test_delay_absorbed_keeps_other_lags(self):
        spec = FcarSpec.delay_absorbed(3, 2)
        assert spec.components == (0, 1, 3)
        assert spec.max_lag == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 0, "d": 1},
            {"p": 2, "d": 0},
            {"p": 2, "d": 3},
        ],
    )
    def test_invalid_orders_raise(self, kwargs):
        with pytest.raises(ValueError):
            FcarSpec(**kwargs)


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
        # at a knot the row is that knot's unit vector: one nonzero entry,
        # equal to 1, with no rounding left in the neighbouring tents
        for n in range(1, 61):
            basis = SplineBasis(n)
            vals = basis_eval(basis, basis.knots)
            npt.assert_array_equal(np.count_nonzero(vals, axis=1), 1, err_msg=f"N={n}")
            npt.assert_array_equal(vals, np.eye(basis.n_funcs), err_msg=f"N={n}")

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
        _, doubled = spline_rows(x, spec, basis, 2.0 * x)
        npt.assert_allclose(doubled.coeffs, 2.0 * base, atol=1e-9)

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
        _, prefit = spline_rows(x, spec, basis)
        assert prefit.deficient
        assert np.all(np.isfinite(prefit.coeffs))
        npt.assert_array_equal(spline_preestimate(x, spec, basis), prefit.coeffs)

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


def spline_lstsq(B, blocks, cols, y):
    """The marginal spline pre-fit of the response rows ``y``, with its
    variance bookkeeping, as a fit's solve keeps it."""
    coefs, parts, ranks = fcar._spline_fits(B, blocks, cols, y[None])
    return fcar._prefit_summary(blocks, y, coefs[0], parts[:, 0], ranks[0])


def spline_rows(x, spec, basis, response=None):
    """The fit rows of ``x`` and the marginal spline pre-fit of ``response``
    (default ``x``) at those rows."""
    rows = fcar._fit_rows(x, spec, None)
    B, blocks = fcar._spline_design(rows, spec, basis)
    y = (x if response is None else response)[rows.t]
    return rows, spline_lstsq(B, blocks, rows.cols, y)


class TestAbsPercentile:
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @example([0.0])
    @example([-0.0])
    @example([-0.0, 0.0, -0.0])
    @example([3.0] * 40)
    @example([-2.0, 2.0] * 11)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_numpy_percentile(self, values):
        # one value, ties, zeros of both signs and any magnitude
        v = np.array(values)
        got = np.float64(fcar._abs_p95(v))
        assert got.tobytes() == np.float64(np.percentile(np.abs(v), 95)).tobytes()


class TestFitRows:
    def test_rows_hold_the_regression(self):
        x = ar2_series(60, seed=3)
        spec = FcarSpec.delay_absorbed(3, 2)
        rows = fcar._fit_rows(x, spec, 5)
        t = np.arange(5, 60)
        npt.assert_array_equal(rows.t, t)
        npt.assert_array_equal(rows.u, x[t - 2])
        assert rows.umap == UTransform(x[t - 2].min(), x[t - 2].max())
        assert len(rows.cols) == 3
        for col, want in zip(rows.cols, (np.ones(t.size), x[t - 1], x[t - 3])):
            npt.assert_array_equal(col, want)
        # rows never start before the largest lag
        npt.assert_array_equal(fcar._fit_rows(x, spec, 1).t, np.arange(3, 60))
        # a solve reads its response at the rows
        resp = np.cos(x)
        fit = fcar._solve_fit(fcar._fit_design(x, spec, FcarOptions(n_knots=4), 5), resp)
        npt.assert_array_equal(fit.residuals, resp[t] - fit.fitted)

    @pytest.mark.parametrize(
        "spec",
        [FcarSpec.delay_absorbed(2, 1), FcarSpec(p=2, d=1)],
        ids=["delay-absorbed", "plain"],
    )
    def test_one_row_build_per_fit(self, monkeypatch, spec):
        # a fit is one design: one row build and one SVD per component, of
        # the block's stacked interval triangles (at most 2(N+1) rows)
        calls = {"_fit_rows": 0, "_stack_svd": 0, "_fit_design": 0, "_solve_fit": 0, "_solve": 0}
        svd_rows = []

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                out = original(*args, **kwargs)
                if name == "_stack_svd":
                    svd_rows.append((out[0].shape[0], 2 * (out[0].shape[1] - 1)))
                return out

            monkeypatch.setattr(module, name, wrapper)

        counting(fcar, "_fit_rows")
        counting(fcar, "_stack_svd")
        x = simulate_expar2(Expar2Config(n_times=200, seed=1))
        fit_fcar(x, spec)
        fcar._solve_fit(fcar._fit_design(x, spec, None, 4), np.sin(x))
        assert calls == {
            "_fit_rows": 2, "_stack_svd": 4, "_fit_design": 0, "_solve_fit": 0, "_solve": 0
        }
        # a lattice fit builds one design per sensor and solves it twice:
        # for the backfit's temporal stage (one response per neighbor set,
        # one set here), then for the final one, which keeps its fit
        from skylattice import fcsar

        counting(fcsar, "_fit_design")
        counting(fcsar, "_solve_fit")
        counting(fcsar, "_solve")
        layout = grid_layout(3, 3, spacing=90.0)
        field = simulate_field(FieldSimConfig(layout, 80, seed=2))
        graph = build_neighbor_graph(layout, 2)
        fit_fcsar(field, FcsarSpec.uniform(graph, 1, spec), FcarOptions(n_knots=4))
        assert calls == {
            "_fit_rows": 2 + 9,
            "_stack_svd": 4 + 9 * 2,
            "_fit_design": 9,
            "_solve_fit": 9,
            "_solve": 9,
        }
        assert all(rows <= bound for rows, bound in svd_rows), svd_rows

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_smoother_evaluation_per_design_and_per_curve_read(self, monkeypatch, p):
        # each running-moments evaluation serves every component, however
        # many there are: the design evaluates the smoother at the observed
        # u, a solve reads its levels off the design, and the first read of
        # a fit's curves adds one evaluation on the curve grid
        calls = []
        original = fcar._moment_smoother

        def counting(u, cols, h, points):
            calls.append("obs" if points is u else points.size)
            return original(u, cols, h, points)

        monkeypatch.setattr(fcar, "_moment_smoother", counting)
        x = simulate_expar2(Expar2Config(n_times=200, seed=1))
        spec = FcarSpec.delay_absorbed(p, 1)
        design = fcar._fit_design(x, spec, None, None)
        fits = [fcar._solve_fit(design, r) for r in (x, np.sin(x))]
        assert calls == ["obs"]
        assert all(len(fit.curves) == p for fit in fits)
        assert calls == ["obs"] + [fcar.GRID_SIZE] * 2
        # a second read returns the same curves and evaluates nothing
        assert all(fit.curves is fit.curves for fit in fits)
        assert calls == ["obs"] + [fcar.GRID_SIZE] * 2

    def test_grid_evaluations_only_when_curves_are_read(self, monkeypatch):
        # leave-one-out cross-validation reads only transfer coefficients
        # and a lattice fit only fitted values, so both evaluate the
        # smoother at the observed u of each design and never on a grid;
        # reading the curves of each sensor's final fit refines them once
        calls = []
        original = fcar._moment_smoother

        def counting(u, cols, h, points):
            calls.append("obs" if points is u else points.size)
            return original(u, cols, h, points)

        monkeypatch.setattr(fcar, "_moment_smoother", counting)
        layout = grid_layout(4, 4, spacing=90.0)
        field = simulate_field(FieldSimConfig(layout, 80, seed=2))
        spec = FcsarSpec.uniform(build_neighbor_graph(layout, 2), 1, FcarSpec.delay_absorbed(2, 1))
        options = FcarOptions(n_knots=4)
        crossval(field, CrossvalPlan.all_subsets(16, 1), "fcsar", spec, options)
        assert calls and set(calls) == {"obs"}
        calls.clear()
        fit = fit_fcsar(field, spec, options)
        assert calls == ["obs"] * 16
        for _ in range(2):
            assert all(len(f.curves) == 2 for f in fit.fcar_fits)
        assert calls == ["obs"] * 16 + [fcar.GRID_SIZE] * 16


class TestPseudoResponses:
    def test_strips_the_other_component(self):
        x = simulate_expar2(Expar2Config(n_times=200, seed=2))
        spec = FcarSpec.delay_absorbed(2, 1)
        basis = SplineBasis(8)
        rows, prefit = spline_rows(x, spec, basis)
        w = pseudo_responses(x[rows.t], prefit.parts, 1)
        t = np.arange(2, x.size)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        intercept = basis_eval(basis, unit) @ spline_preestimate(x, spec, basis)[:, 0]
        npt.assert_allclose(w, x[t] - intercept, atol=1e-12)

    def test_zero_coefficients_leave_series_untouched(self):
        x = ar1_series(80, seed=4)
        y = x[2:].copy()
        parts = (np.zeros(y.size), np.zeros(y.size))
        for c in range(2):
            w = pseudo_responses(y, parts, c)
            npt.assert_array_equal(w, x[2:])
            w += 1.0
            npt.assert_array_equal(y, x[2:])

    def test_stripped_parts_sum_to_full_prediction(self):
        x = ar2_series(50, seed=8)
        spec = FcarSpec(p=2, d=1)
        basis = SplineBasis(3)
        rows, prefit = spline_rows(x, spec, basis)
        t = np.arange(2, x.size)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        B = basis_eval(basis, unit)
        full = np.zeros(t.size)
        for c, j in enumerate(spec.components):
            full += (B @ prefit.coeffs[:, c]) * x[t - j]
        w1 = pseudo_responses(x[rows.t], prefit.parts, 0)
        w2 = pseudo_responses(x[rows.t], prefit.parts, 1)
        npt.assert_allclose(2.0 * x[t] - w1 - w2, full, atol=1e-10)


def kernel_stage(u, cols, pseudos, components, h):
    """What ``sbk_estimate`` reads of a fit, for any points u, design columns
    and pseudo-responses: the observed-u smoother's levels, flags and
    traces from ``fcar._observed_smoother``, which ``fcar._fit_design``
    calls."""
    cols, pseudos = np.array(cols), np.array(pseudos)
    obs, reliable, traces = fcar._observed_smoother(u, cols, h)
    return SimpleNamespace(
        u=u, cols=cols, pseudos=pseudos, bandwidth=h,
        spec=SimpleNamespace(components=components),
        obs_estimate=obs.levels(pseudos[:, None, :])[:, 0],
        obs_reliable=reliable, traces=traces,
    )


def sbk(u, cols, pseudos, components, grid, h, prefit_variance):
    """``sbk_estimate`` of ``pseudos`` on a kernel stage built for them."""
    fit = kernel_stage(u, cols, pseudos, components, h)
    return sbk_estimate(fit, np.asarray(grid, dtype=float), prefit_variance)


def sbk_one(u, c1, pseudo, grid, h):
    """``sbk_estimate`` of a single component (lag 1) with design column c1."""
    (curve,) = sbk(u, (c1,), (pseudo,), (1,), grid, h, (np.zeros(np.size(grid)),))
    return curve


class TestSbkEstimate:
    def test_constant_coefficient_recovered_exactly(self):
        x = ar1_series(200, seed=6)
        pseudo = 0.7 * x[:-1]
        u = x[:-1]
        grid = np.linspace(u.min(), u.max(), 21)
        curve = sbk_one(u, u, pseudo, grid, h=0.5 * float(np.std(u)))
        good = curve.reliable
        assert good.any()
        npt.assert_allclose(curve.estimate[good], 0.7, atol=1e-6)

    def test_matches_hand_rolled_weighted_least_squares(self):
        x = ar1_series(40, seed=13)
        t = np.arange(1, 40)
        u = x[t - 1]
        pseudo = x[t]
        u0 = float(np.median(u))
        h = 0.8 * float(np.std(u))
        curve = sbk_one(u, u, pseudo, np.array([u0]), h)
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
        curve = sbk_one(u, u, x[1:], grid, h=0.3)
        assert curve.reliable[0]
        assert not curve.reliable[1]
        assert np.isnan(curve.estimate[1])

    def test_extra_band_variance_widens_bands(self):
        # the other component's pre-estimate variance widens the lag curve's
        # band wherever the local multiplier is nonzero, and its own
        # variance never enters its band
        x = ar1_series(150, seed=15)
        u = x[:-1]
        grid = np.linspace(np.quantile(u, 0.2), np.quantile(u, 0.8), 11)
        h = float(np.std(u)) * 0.6
        cols, pseudos = (u, np.ones(u.size)), (x[1:], x[1:])
        zero = np.zeros(grid.size)

        def curves(variance):
            return sbk(u, cols, pseudos, (1, 0), grid, h, variance)

        plain = curves((zero, zero))
        wide = curves((zero, zero + 0.5))
        own = curves((zero + 0.5, zero))
        both = plain[0].reliable & wide[0].reliable
        assert both.any()
        assert np.all(
            (wide[0].upper - wide[0].lower)[both] > (plain[0].upper - plain[0].lower)[both]
        )
        for name in ("estimate", "lower", "upper"):
            assert np.array_equal(getattr(wide[1], name), getattr(plain[1], name), equal_nan=True)
            assert np.array_equal(getattr(own[0], name), getattr(plain[0], name), equal_nan=True)


class TestFitFcar:
    def test_exponential_autoregression_residual_variance(self):
        rvs = []
        for seed in range(50):
            x = simulate_expar2(Expar2Config(n_times=500, seed=seed))
            fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
            rvs.append(np.mean(fit.residuals**2))
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
            ratios.append(np.mean(fit.residuals**2) / rv_ls)
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
            curve = fit_fcar(x, FcarSpec(p=1, d=1)).curves[0]
            # the kernel estimate at the reliable grid points, interpolated
            use = curve.reliable & np.isfinite(curve.estimate)
            reps.append(np.interp(grid, curve.u[use], curve.estimate[use]))
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
        fit = fcar._solve_fit(fcar._fit_design(x, FcarSpec(p=1, d=1), None, None), resp)
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
        # a value only the lag-2 column reads never reaches the spline factor
        bad = ar1_series(100, seed=1)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            spline_preestimate(bad, FcarSpec(p=2, d=1), SplineBasis(5))
        with pytest.raises(ValueError, match="constant"):
            fit_fcar(np.ones(100), spec)

    @pytest.mark.parametrize("h", [0.0, -0.5])
    def test_nonpositive_bandwidth_raises(self, h):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            FcarOptions(bandwidth=h)


class TestEffectiveParams:
    def test_infinite_bandwidth_limit_is_two_per_curve(self):
        x = simulate_expar2(Expar2Config(n_times=400, seed=3))
        fit1 = fit_fcar(x, FcarSpec(p=1, d=1), FcarOptions(bandwidth=1e6))
        assert effective_params(fit1) == pytest.approx(2.0, abs=0.05)
        fit2 = fit_fcar(x, FcarSpec.delay_absorbed(2, 1), FcarOptions(bandwidth=1e6))
        assert effective_params(fit2) == pytest.approx(4.0, abs=0.1)

    def test_matches_dense_smoother_trace(self):
        x = ar1_series(60, seed=23)
        t = np.arange(1, 60)
        u = x[t - 1]
        c1 = u
        pseudo = x[t]
        h = float(np.std(u))
        curve = sbk_one(u, c1, pseudo, np.array([0.0]), h)
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


def dense_cross(u_obs, a, b, u_eval, h):
    """Kernel sums of a * b over every observation."""
    k = kernel_values((u_obs[None, :] - u_eval[:, None]) / h) / h
    return (k * a[None, :] * b[None, :]).sum(axis=1)


def dense_fused_local_linear(u_obs, cols, ws, u_eval, h):
    """Per-component dense solves stacked one row per component, plus the
    kernel cross sums of every pair of design columns."""
    per = [dense_local_linear(u_obs, c1, w, u_eval, h) for c1, w in zip(cols, ws)]
    stacked = tuple(np.array([p[i] for p in per]) for i in range(5))
    cross = np.array([[dense_cross(u_obs, a, b, u_eval, h) for b in cols] for a in cols])
    return stacked + (cross,)


Z95 = 1.959963984540054


def dense_sbk_estimate(u, cols, pseudos, components, u_grid, h, prefit_variance):
    """``fcar.sbk_estimate`` rebuilt from the dense sums, one component at a time."""
    k0 = kernel_values(np.zeros(1))[0] / h
    curves = []
    for c, (j, c1, pseudo) in enumerate(zip(components, cols, pseudos)):
        obs_est, _, _, obs_rel, a11inv = dense_local_linear(u, c1, pseudo, u, h)
        trace = float(np.nansum(k0 * c1**2 * a11inv))
        resid = pseudo - obs_est * c1
        ok = np.isfinite(resid)
        sigma2 = float(np.nansum(resid[ok] ** 2) / max(np.count_nonzero(ok) - trace, 1.0))
        est, varu, reliable, _, _ = dense_local_linear(u, c1, pseudo, u_grid, h)
        vprop = np.zeros(u_grid.size)
        for oc, (var, other) in enumerate(zip(prefit_variance, cols)):
            if oc != c:
                mult = dense_local_transfer(u, c1, other, u_grid, h)
                vprop += var * np.where(np.isfinite(mult), mult, 0.0) ** 2
        half = Z95 * np.sqrt(sigma2 * varu + vprop)
        curves.append(
            fcar.SbkCurve(
                j, u_grid, est, est - half, est + half, reliable, sigma2, trace,
                obs_est, obs_rel,
            )
        )
    return tuple(curves)


def level_sweep(u_obs, cols, ws, u_eval, h):
    """The running-moments smoother of ``ws`` at any points, one row per
    component: the level estimate, the grid's reliability flag and a11/det
    in the units of ``dense_local_linear``.

    The smoother's Gram sums leave out the kernel's 1/h and 3/4 (every ratio
    cancels them), so their g11/det is 3/(4h) times the dense a11/det."""
    cols = np.array(cols)
    smoother = _moment_smoother(u_obs, cols, h, u_eval)
    est = smoother.levels(np.array(ws)[:, None])[:, 0]
    info = cols**2 / np.mean(cols**2, axis=1, keepdims=True)
    many = (smoother.n_raw >= fcar.MIN_LOCAL_OBS) & (smoother.window_sums(info) >= fcar.MIN_LOCAL_OBS)
    a11inv = (smoother.gram[2] * smoother.inv)[:, smoother.rank] * (h / 0.75)
    return est, smoother.ok & many, a11inv


def band_variance(curve):
    """Sandwich variance per unit noise variance behind a band that carries
    no pre-estimate variance."""
    return ((curve.upper - curve.estimate) / Z95) ** 2 / curve.sigma2


def dense_counts(u_obs, u_eval, h):
    """Observations within one bandwidth (|u - u0| <= h) of each point."""
    return np.count_nonzero(np.abs(u_obs[None, :] - u_eval[:, None]) <= h, axis=1)


def assert_same_nans_and_close(got, want, counts, rtol=1e-10):
    """Equal NaNs everywhere, and values within ``rtol`` at the points whose
    ``counts`` reach MIN_LOCAL_OBS.  With fewer observations a level can
    rest on a nearly singular system (two u close together, far from the
    point), where running moments and direct sums differ by more than
    rounding; such a point is never reliable, and no caller reads it."""
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    many = counts >= fcar.MIN_LOCAL_OBS
    npt.assert_allclose(got[..., many], want[..., many], rtol=rtol, atol=0, equal_nan=True)


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


# component sets for the fused sweep: window_case draws the same u and
# "other" column for every design of one case, so its designs combine
COMPONENT_SETS = [("lag",), ("intercept", "other"), ("intercept", "lag", "other")]

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
    def test_segments_hold_every_weighted_observation(self, kernel, name):
        # the smoother cuts each point's window at bins of one bandwidth
        # into three segments; together they must hold every observation
        # within one bandwidth or of nonzero kernel weight, and each
        # segment must lie in the one bin it is summed about
        u, c1, _, u_eval, h = window_case(name, "other")
        smoother = _moment_smoother(u, c1[None], h, u_eval)
        segments, n = smoother.segments, u.size
        bin_of = np.repeat(np.arange(segments.bin_sizes.size), segments.bin_sizes)
        cuts = segments.index[:4, smoother.rank]
        bins = segments.index[4:, smoother.rank] - (n + 1)
        for i, e in enumerate(u_eval):
            diff = u - e
            needed = (np.abs(diff) <= h) | (kernel_values(diff / h) != 0)
            held = smoother.order[cuts[0, i] : cuts[3, i]]
            assert set(np.flatnonzero(needed)) <= set(held.tolist())
            for s in range(3):
                assert np.all(bin_of[cuts[s, i] : cuts[s + 1, i]] == bins[s, i])
        npt.assert_array_equal(smoother.n_raw, dense_counts(u, u_eval, h))
        if name == "random70":
            assert np.max(cuts[3] - cuts[0]) == n

    @pytest.mark.parametrize("design", ["lag", "other", "intercept"])
    @pytest.mark.parametrize("name", WINDOW_CASES)
    @pytest.mark.parametrize("kernel", KERNEL_SUPPORT)
    def test_local_linear_matches_dense(self, kernel, name, design):
        u, c1, w, u_eval, h = window_case(name, design)
        want = dense_local_linear(u, c1, w, u_eval, h)
        est, reliable, a11inv = (a[0] for a in level_sweep(u, (c1,), (w,), u_eval, h))
        counts = dense_counts(u, u_eval, h)
        npt.assert_array_equal(reliable, want[2])
        assert_same_nans_and_close(est, want[0], counts)
        assert_same_nans_and_close(a11inv, want[4], counts)
        if name == "outside":
            assert np.isnan(est[:6]).all() and not reliable[:6].any()
        # sbk_estimate at the same points: its grid sweep's estimate,
        # information-weighted flag and sandwich variance, and the design's
        # in-sample fit, smoother trace and noise variance at the observed u
        curve = sbk_one(u, c1, w, u_eval, h)
        npt.assert_array_equal(curve.reliable, want[2])
        assert_same_nans_and_close(curve.estimate, want[0], counts)
        assert_same_nans_and_close(band_variance(curve), want[1], counts)
        (dense,) = dense_sbk_estimate(u, (c1,), (w,), (1,), u_eval, h, (np.zeros(u_eval.size),))
        npt.assert_array_equal(curve.obs_reliable, dense.obs_reliable)
        assert_same_nans_and_close(curve.obs_estimate, dense.obs_estimate, dense_counts(u, u, h))
        assert curve.smoother_trace == pytest.approx(dense.smoother_trace, rel=1e-10)
        assert curve.sigma2 == pytest.approx(dense.sigma2, rel=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_points_a_bandwidth_from_each_observation(self, seed):
        # the rounded u0 = u -+ h put an observation on or next to the edge
        # of a window, where its kernel weight is zero up to rounding; below
        # the smallest u the open window is empty and the closed one holds
        # only those edge observations, and no such point may pass as well
        # posed on the rounding of its sums
        rng = np.random.default_rng(seed)
        u = np.concatenate([rng.uniform(0.1, 2.0, 60), np.full(3, 0.1)])
        c1 = rng.standard_normal(u.size)
        w = c1 * (1.0 + u) + 0.1 * rng.standard_normal(u.size)
        h = 0.3
        u_eval = np.concatenate([u - h, u + h])
        want = dense_local_linear(u, c1, w, u_eval, h)
        est, reliable, _ = (a[0] for a in level_sweep(u, (c1,), (w,), u_eval, h))
        npt.assert_array_equal(np.isnan(est), np.isnan(want[0]))
        npt.assert_array_equal(reliable, want[2])
        assert np.isnan(est[u_eval < 0.1 - h + 1e-12]).all()

    @pytest.mark.parametrize("name", WINDOW_CASES)
    @pytest.mark.parametrize("kernel", KERNEL_SUPPORT)
    def test_local_transfer_matches_dense(self, kernel, name):
        # the band multiplier that sbk_estimate forms for a pre-estimate
        # error riding on another design column.  A zero response leaves
        # no noise variance, so with a unit pre-estimate variance on the
        # other column the first curve's band is 1.96 |multiplier| wherever
        # its local system is well posed
        u, c1, other, u_eval, h = window_case(name, "other")
        zero, ones = np.zeros(u.size), np.ones(u_eval.size)
        (curve, _) = sbk(u, (c1, other), (zero, zero), (1, 2), u_eval, h, (0 * ones, ones))
        assert curve.sigma2 == 0.0
        ok = np.isfinite(dense_local_linear(u, c1, zero, u_eval, h)[0])
        got = curve.upper / Z95
        npt.assert_array_equal(np.isfinite(got), ok)
        want = dense_local_transfer(u, c1, other, u_eval, h)
        npt.assert_allclose(got[ok], np.abs(want[ok]), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("designs", COMPONENT_SETS, ids="+".join)
    @pytest.mark.parametrize("name", WINDOW_CASES)
    def test_fused_sweep_matches_dense_per_component(self, name, designs):
        cases = [window_case(name, design) for design in designs]
        u, _, _, u_eval, h = cases[0]
        cols = tuple(case[1] for case in cases)
        ws = tuple(case[2] for case in cases)
        want = dense_fused_local_linear(u, cols, ws, u_eval, h)
        est, reliable, a11inv = level_sweep(u, cols, ws, u_eval, h)
        counts = dense_counts(u, u_eval, h)
        npt.assert_array_equal(reliable, want[2])
        assert_same_nans_and_close(est, want[0], counts)
        assert_same_nans_and_close(a11inv, want[4], counts)
        m, zeros = len(cols), (np.zeros(u_eval.size),) * len(cols)
        for c, curve in enumerate(sbk(u, cols, ws, tuple(range(m)), u_eval, h, zeros)):
            npt.assert_array_equal(curve.reliable, want[2][c])
            assert_same_nans_and_close(curve.estimate, want[0][c], counts)
            assert_same_nans_and_close(band_variance(curve), want[1][c], counts)
        # a zero response and unit pre-estimate variances: each band is
        # 1.96 times the root sum of the squared multipliers of the others
        zero_ws, ones = (np.zeros(u.size),) * m, (np.ones(u_eval.size),) * m
        for c, curve in enumerate(sbk(u, cols, zero_ws, tuple(range(m)), u_eval, h, ones)):
            ok = np.isfinite(curve.estimate)
            vprop = sum((want[5][c, oc, ok] / want[5][c, c, ok]) ** 2 for oc in range(m) if oc != c)
            npt.assert_allclose((curve.upper / Z95)[ok], np.sqrt(vprop), rtol=1e-10, atol=0)


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
    """Run fits with the kernel stage built from the dense sums: the
    observed-u level sweep, which every solve runs (a backfit reads nothing
    else of the kernel stage), and the curves, built when read."""

    def dense_levels(design, pseudos):
        u = design.rows.u
        return np.array([
            [dense_local_linear(u, c1, w, u, design.h)[0] for w in ws]
            for c1, ws in zip(design.rows.cols, pseudos)
        ])

    def dense(fit, u_grid, prefit_variance):
        return dense_sbk_estimate(
            fit.u, fit.cols, fit.pseudos, fit.spec.components, u_grid, fit.bandwidth,
            prefit_variance,
        )

    def use_dense():
        monkeypatch.setattr(fcar._FitDesign, "levels", dense_levels)
        monkeypatch.setattr(fcar, "sbk_estimate", dense)

    return use_dense


def with_curves(fits):
    """``fits`` after reading their curves, which are built when first read."""
    for fit in fits:
        assert fit.curves
    return fits


class TestWindowedFitOracle:
    def test_fit_fcar_matches_dense_fit(self, dense_kernel_stage):
        x = simulate_expar2(Expar2Config(n_times=500, seed=0))
        spec = FcarSpec.delay_absorbed(2, 1)
        (windowed,) = with_curves([fit_fcar(x, spec)])
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
        with_curves(windowed.fcar_fits)
        dense_kernel_stage()
        dense = fit_fcsar(field, spec)
        npt.assert_allclose(windowed.beta, dense.beta, rtol=1e-10, atol=1e-10)
        for mine, ref in zip(windowed.fcar_fits, dense.fcar_fits):
            assert_fits_agree(mine, ref)
        npt.assert_allclose(
            windowed.fitted_values, dense.fitted_values, rtol=1e-10, atol=1e-10
        )
        npt.assert_allclose(windowed.residuals, dense.residuals, rtol=1e-10, atol=1e-10)

    def test_separable_ts_matches_dense_fit(self, dense_kernel_stage):
        """The time-first pipeline on ``simulate --seed 3 --T 120``: its SAR
        stage amplifies no rounding difference of the kernel sums."""
        layout = grid_layout(4, 4, spacing=90.0)
        field = simulate_field(FieldSimConfig(layout, 120, seed=3))
        graph = build_neighbor_graph(layout, 2)
        spec = FcarSpec.delay_absorbed(2, 1)
        windowed = fit_separable(field, "time_then_space", graph, spec)
        dense_kernel_stage()
        dense = fit_separable(field, "time_then_space", graph, spec)
        npt.assert_allclose(windowed.sar_trace.rho, dense.sar_trace.rho, rtol=0, atol=1e-10)
        npt.assert_allclose(windowed.residuals, dense.residuals, rtol=1e-10, atol=1e-10, equal_nan=True)

    def test_band_variance_matches_dense_propagation(self):
        # rebuild each band from the dense sums and the explicit quadratic
        # form b(u)' G b(u) of the spline pre-estimate variance
        x = simulate_expar2(Expar2Config(n_times=500, seed=0))
        spec = FcarSpec.delay_absorbed(2, 1)
        fit = fit_fcar(x, spec)
        prefit = ref_spline_lstsq(ref_fit_rows(x, spec, None, None), spec, fit.basis)
        t = np.arange(2, x.size)
        u = x[t - 1]
        unit = (u - u.min()) / (u.max() - u.min())
        cols = [np.ones(t.size), x[t - 2]]
        parts = [(basis_eval(fit.basis, unit) @ prefit.coeffs[:, c]) * cols[c] for c in (0, 1)]
        grid = fit.curves[0].u
        grid_B = basis_eval(fit.basis, fit.u_transform.to_unit(grid))
        h = fit.bandwidth
        for c, curve in enumerate(fit.curves):
            c1 = cols[c]
            pseudo = x[t] - parts[1 - c]
            varu = dense_local_linear(u, c1, pseudo, grid, h)[1]
            vprop = np.zeros(grid.size)
            for oc in (0, 1):
                if oc == c:
                    continue
                mult = dense_local_transfer(u, c1, cols[oc], grid, h)
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
        base = level_sweep(u, (c1,), (w,), u_eval, 0.4)
        moved = level_sweep(u[perm], (c1[perm],), (w[perm],), u_eval, 0.4)
        npt.assert_array_equal(moved[1], base[1])
        for i in (0, 2):
            npt.assert_allclose(moved[i], base[i], rtol=1e-12, atol=0, equal_nan=True)
        # the curves: the noise variance sums its rows in input order, so
        # the bands move by rounding
        base = sbk_one(u, c1, w, u_eval, 0.4)
        moved = sbk_one(u[perm], c1[perm], w[perm], u_eval, 0.4)
        npt.assert_array_equal(moved.reliable, base.reliable)
        npt.assert_array_equal(moved.obs_reliable, base.obs_reliable[perm])
        npt.assert_allclose(moved.estimate, base.estimate, rtol=1e-12, atol=0, equal_nan=True)
        npt.assert_allclose(
            moved.obs_estimate, base.obs_estimate[perm], rtol=1e-12, atol=0, equal_nan=True
        )
        for name in ("lower", "upper"):
            npt.assert_allclose(
                getattr(moved, name), getattr(base, name), rtol=1e-12, atol=1e-12, equal_nan=True
            )
        assert moved.smoother_trace == pytest.approx(base.smoother_trace, rel=1e-12)


class TestValueScaling:
    """Scaling the series by c scales u, the intercept curve and the fitted
    values by c and leaves a lag curve unchanged.  A power of two scales
    every intermediate exactly; c = 3 rounds."""

    @pytest.mark.parametrize("c", [4.0, 0.25])
    @pytest.mark.parametrize("seed", range(5))
    def test_power_of_two_scales_exactly(self, c, seed):
        x = simulate_expar2(Expar2Config(n_times=500, seed=seed))
        spec = FcarSpec.delay_absorbed(2, 1)
        base, scaled = fit_fcar(x, spec), fit_fcar(c * x, spec)
        assert np.array_equal(scaled.fitted, c * base.fitted)
        assert np.array_equal(scaled.residuals, c * base.residuals)
        for mine, ref in zip(scaled.curves, base.curves):
            assert np.array_equal(mine.u, c * ref.u)
            assert np.array_equal(mine.reliable, ref.reliable)
            assert np.array_equal(mine.obs_reliable, ref.obs_reliable)
        (mine0, mine2), (ref0, ref2) = scaled.curves, base.curves
        for name in ("estimate", "lower", "upper"):
            assert np.array_equal(getattr(mine0, name), c * getattr(ref0, name), equal_nan=True)
            assert np.array_equal(getattr(mine2, name), getattr(ref2, name), equal_nan=True)

    def test_other_factor_scales_to_rounding(self):
        x = simulate_expar2(Expar2Config(n_times=500, seed=0))
        spec = FcarSpec.delay_absorbed(2, 1)
        base, scaled = fit_fcar(x, spec), fit_fcar(3.0 * x, spec)
        # relative to the largest fitted value: single values near 0 cancel
        want = 3.0 * base.fitted
        npt.assert_allclose(scaled.fitted, want, rtol=0, atol=1e-12 * np.abs(want).max())


# ------------------------------------------------ design/solve oracle
# ``fit_fcar`` as it was before a fit split into a response-free design
# and a per-response solve, kept with the helpers it called: every fit
# builds its rows, factors its dense spline blocks by SVD and forms every
# kernel sum for its own response.  A design solved for several responses
# must give each response's reference fit to 1e-12 of scale, with the same
# NaNs and flags; the spline blocks are factored by knot interval now, which
# moves the last bits.


class RefRows:
    def __init__(self, t, u, umap, y, cols):
        self.t, self.u, self.umap, self.y, self.cols = t, u, umap, y, cols


def ref_fit_rows(x, spec, t_start, response):
    T = x.size
    start = spec.max_lag if t_start is None else max(t_start, spec.max_lag)
    if T - start < 2:
        raise ValueError("series too short for this specification")
    t = np.arange(start, T)
    u = x[t - spec.d]
    lo, hi = float(u.min()), float(u.max())
    if not hi > lo:
        raise ValueError("functional variable is constant; cannot rescale to [0,1]")
    y = x[t] if response is None else np.asarray(response, dtype=float)[t]
    cols = tuple(np.ones(t.size) if j == 0 else x[t - j] for j in spec.components)
    return RefRows(t, u, UTransform(lo, hi), y, cols)


def ref_block_solve(D, y, cap):
    from scipy.linalg import svd

    U, sing, Vt = svd(D, full_matrices=False)
    if sing[0] <= 0.0:
        raise ValueError("degenerate spline design (all-zero block)")
    uty = U.T @ y
    cond = fcar._SPLINE_COND
    while True:
        keep = sing > cond * sing[0]
        coef = Vt[keep].T @ (uty[keep] / sing[keep])
        if not np.any(np.abs(coef) > cap) or cond >= fcar._SPLINE_COND_MAX:
            break
        cond *= fcar._SPLINE_COND_STEP
    rank = int(np.count_nonzero(keep))
    gram_inv = (Vt[keep].T / sing[keep] ** 2) @ Vt[keep]
    resid = y - D @ coef
    sigma2 = float(resid @ resid / max(y.size - rank, 1))
    return coef, sigma2, gram_inv, rank, cond


def gram_band(G):
    """The diagonal and superdiagonal of a dense symmetric G, laid out as
    ``fcar._gram_band`` returns them."""
    band = np.zeros((2, G.shape[0]))
    band[0] = np.diag(G)
    band[1, :-1] = np.diag(G, 1)
    return band


def ref_spline_lstsq(rows, spec, basis):
    n_funcs = basis.n_funcs
    if rows.t.size <= n_funcs + spec.max_lag:
        raise ValueError(
            f"series too short: {rows.t.size} usable rows for {n_funcs} "
            "coefficients per component"
        )
    B = basis_eval(basis, rows.umap.to_unit(rows.u))
    y = rows.y
    y_scale = max(float(np.percentile(np.abs(y), 95)), 1e-12)

    coefs, sigma2s, gram_invs = [], [], []
    deficient = False
    for j, reg in zip(spec.components, rows.cols):
        r_scale = 1.0 if j == 0 else max(float(np.percentile(np.abs(reg), 95)), 1e-12)
        D = B * reg[:, None]
        coef, sigma2, gram_inv, rank, _ = ref_block_solve(D, y, 1e3 * y_scale / r_scale)
        deficient |= rank < n_funcs
        coefs.append(coef)
        sigma2s.append(sigma2)
        gram_invs.append(gram_inv)
    coeffs = np.column_stack(coefs)
    return SimpleNamespace(
        coeffs=coeffs,
        parts=tuple((B @ coeffs[:, c]) * reg for c, reg in enumerate(rows.cols)),
        sigma2s=tuple(sigma2s),
        gram_invs=tuple(gram_invs),
        deficient=deficient,
    )


def ref_local_linear(u_obs, cols, ws, u_eval, h):
    for sl, idx, diff, k in _kernel_windows(u_obs, u_eval, h):
        in_bw = np.abs(diff) <= h
        fits = []
        for c1, w in zip(cols, ws):
            c1w, ww = c1[idx], w[idx]
            c2 = c1w * diff
            a00 = (k * c1w**2).sum(axis=1)
            a01 = (k * c1w * c2).sum(axis=1)
            a11 = (k * c2 * c2).sum(axis=1)
            b0 = (k * c1w * ww).sum(axis=1)
            b1 = (k * c2 * ww).sum(axis=1)
            det = a00 * a11 - a01 * a01
            scale = np.abs(a00 * a11) + a01 * a01
            ok = det > 1e-12 * np.maximum(scale, 1e-300)
            est = np.full(a00.size, np.nan)
            est[ok] = (a11[ok] * b0[ok] - a01[ok] * b1[ok]) / det[ok]
            fits.append((a00, a01, a11, det, ok, est))
        yield sl, idx, diff, k, in_bw, np.count_nonzero(in_bw, axis=1), fits


def ref_sbk_estimate(u, cols, pseudos, components, u_grid, h, prefit_variance):
    min_obs = fcar.MIN_LOCAL_OBS
    u_grid = np.asarray(u_grid, dtype=float)
    m, n, g = len(cols), u.size, u_grid.size
    obs_est, obs_a11inv = np.full((m, n), np.nan), np.full((m, n), np.nan)
    obs_rel = np.zeros((m, n), dtype=bool)
    for sl, *_, n_raw, fits in ref_local_linear(u, cols, pseudos, u, h):
        for c, (_, _, a11, det, ok, est) in enumerate(fits):
            obs_est[c, sl] = est
            obs_a11inv[c, sl][ok] = a11[ok] / det[ok]
            obs_rel[c, sl] = ok & (n_raw >= min_obs)
    k0 = kernel_values(np.zeros(1))[0] / h
    traces, sigma2s = [], []
    for c, (c1, pseudo) in enumerate(zip(cols, pseudos)):
        traces.append(float(np.nansum(k0 * c1**2 * obs_a11inv[c])))
        resid = pseudo - obs_est[c] * c1
        ok = np.isfinite(resid)
        dof = max(float(np.count_nonzero(ok)) - traces[c], 1.0)
        sigma2s.append(float(np.nansum(resid[ok] ** 2) / dof))

    est, half = np.full((m, g), np.nan), np.full((m, g), np.nan)
    reliable = np.zeros((m, g), dtype=bool)
    info_wts = [c1**2 / max(float(np.mean(c1**2)), 1e-300) for c1 in cols]
    for sl, idx, diff, k, in_bw, n_raw, fits in ref_local_linear(u, cols, pseudos, u_grid, h):
        k2 = k * k
        for c, (a00, a01, a11, det, ok, level) in enumerate(fits):
            est[c, sl] = level
            n_info = (in_bw * info_wts[c][idx]).sum(axis=1)
            reliable[c, sl] = ok & (n_raw >= min_obs) & (n_info >= min_obs)
            c1w = cols[c][idx]
            c2 = c1w * diff
            s00 = (k2 * c1w**2).sum(axis=1)
            s01 = (k2 * c1w * c2).sum(axis=1)
            s11 = (k2 * c2 * c2).sum(axis=1)
            varu = np.full(a00.size, np.nan)
            varu[ok] = (
                a11[ok] ** 2 * s00[ok]
                - 2.0 * a11[ok] * a01[ok] * s01[ok]
                + a01[ok] ** 2 * s11[ok]
            ) / det[ok] ** 2
            vprop = np.zeros(a00.size)
            for oc, (var, other) in enumerate(zip(prefit_variance, cols)):
                if oc != c:
                    mult = np.divide(
                        (k * c1w * other[idx]).sum(axis=1), a00,
                        out=np.full(a00.size, np.nan), where=a00 > 0.0,
                    )
                    vprop += var[sl] * np.where(np.isfinite(mult), mult, 0.0) ** 2
            half[c, sl] = 1.959963984540054 * np.sqrt(sigma2s[c] * varu + vprop)
    return tuple(
        fcar.SbkCurve(
            target_j=j,
            u=u_grid,
            estimate=est[c],
            lower=est[c] - half[c],
            upper=est[c] + half[c],
            reliable=reliable[c],
            sigma2=sigma2s[c],
            smoother_trace=traces[c],
            obs_estimate=obs_est[c],
            obs_reliable=obs_rel[c],
        )
        for c, j in enumerate(components)
    )


def ref_fit_fcar(x, spec, options=None, *, response=None, t_start=None):
    opts = options or FcarOptions()
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D series")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    T = x.size
    n_knots = opts.n_knots if opts.n_knots is not None else default_knot_count(T)
    basis = SplineBasis(n_knots)
    rows = ref_fit_rows(x, spec, t_start, response)
    prefit = ref_spline_lstsq(rows, spec, basis)
    u = rows.u
    h = opts.bandwidth if opts.bandwidth is not None else rule_of_thumb_bandwidth(u, T)
    u_grid = np.linspace(u.min(), u.max(), fcar.GRID_SIZE)
    grid_B = basis_eval(basis, rows.umap.to_unit(u_grid))
    prefit_variance = tuple(
        s2 * ((grid_B @ g) * grid_B).sum(axis=1)
        for s2, g in zip(prefit.sigma2s, prefit.gram_invs)
    )
    pseudos = tuple(
        pseudo_responses(rows.y, prefit.parts, c) for c in range(len(rows.cols))
    )
    curves = ref_sbk_estimate(
        u, rows.cols, pseudos, spec.components, u_grid, h, prefit_variance
    )

    kernel_sum = np.zeros(rows.t.size)
    row_ok = np.ones(rows.t.size, dtype=bool)
    for c1, curve in zip(rows.cols, curves):
        kernel_sum += np.where(
            np.isfinite(curve.obs_estimate), curve.obs_estimate, 0.0
        ) * c1
        row_ok &= curve.obs_reliable & np.isfinite(curve.obs_estimate)
    fitted = np.where(row_ok, kernel_sum, prefit.parts[0])
    residuals = rows.y - fitted

    return SimpleNamespace(
        spec=spec,
        basis=basis,
        u_transform=rows.umap,
        spline_coeffs=prefit.coeffs,
        curves=curves,
        bandwidth=float(h),
        t_start=int(rows.t[0]),
        fitted=fitted,
        residuals=residuals,
        rank_deficient=prefit.deficient,
    )


def assert_fits_identical(got, want):
    """Every field of two fits, arrays under ``np.array_equal`` with NaNs equal."""

    def same(a, b):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")

    for name in ("spec", "basis", "u_transform", "bandwidth", "t_start", "rank_deficient"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("spline_coeffs", "fitted", "residuals"):
        same(getattr(got, name), getattr(want, name))
    assert len(got.curves) == len(want.curves)
    for mine, ref in zip(got.curves, want.curves):
        for name in ("target_j", "sigma2", "smoother_trace"):
            assert getattr(mine, name) == getattr(ref, name), name
        for name in ("u", "estimate", "lower", "upper", "reliable", "obs_estimate", "obs_reliable"):
            same(getattr(mine, name), getattr(ref, name))


def assert_close_to_scale(got, want, floor, rtol, name):
    """Same shape and NaNs; finite entries within ``rtol`` of the larger of
    the largest |want| and ``floor``."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    npt.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
    fin = np.isfinite(want)
    scale = max(float(np.abs(want[fin]).max(initial=0.0)), floor)
    npt.assert_allclose(got[fin], want[fin], rtol=0, atol=rtol * scale, err_msg=name)


def assert_fits_close(got, want, grid_counts, rtol=1e-12):
    """Two fits agree to ``rtol`` of scale, with equal NaNs and flags.

    An array's scale is its largest magnitude, but at least the response's
    (its square for a variance): a curve fitted to a pseudo-response that
    is zero up to rounding holds rounding only, and no relative digits.
    The curves are compared at the grid points whose ``grid_counts``
    (observations within one bandwidth) reach MIN_LOCAL_OBS, like the
    in-sample levels below.
    """
    y = want.fitted + want.residuals
    y_scale = float(np.abs(y).max())
    for name in ("spec", "basis", "u_transform", "bandwidth", "t_start", "rank_deficient"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("spline_coeffs", "fitted", "residuals"):
        assert_close_to_scale(getattr(got, name), getattr(want, name), y_scale, rtol, name)
    assert len(got.curves) == len(want.curves)
    for mine, ref in zip(got.curves, want.curves):
        assert mine.target_j == ref.target_j
        assert_close_to_scale(mine.u, ref.u, y_scale, rtol, "u")
        many = grid_counts >= fcar.MIN_LOCAL_OBS
        for name in ("estimate", "lower", "upper"):
            got_c, want_c = getattr(mine, name), getattr(ref, name)
            npt.assert_array_equal(np.isnan(got_c), np.isnan(want_c), err_msg=name)
            assert_close_to_scale(got_c[many], want_c[many], y_scale, rtol, name)
        # the in-sample levels are running-moment sums, the reference's are
        # window sums.  A level backed by fewer than MIN_LOCAL_OBS
        # observations can rest on a nearly singular system (two nearly
        # tied u), where the two differ by more than rounding; such a level
        # is unreliable and its row falls back, so only its NaN must agree
        npt.assert_array_equal(np.isnan(mine.obs_estimate), np.isnan(ref.obs_estimate))
        rel = ref.obs_reliable
        assert_close_to_scale(
            mine.obs_estimate[rel], ref.obs_estimate[rel], y_scale, rtol, "obs_estimate"
        )
        assert_close_to_scale(mine.sigma2, ref.sigma2, y_scale**2, rtol, "sigma2")
        assert_close_to_scale(mine.smoother_trace, ref.smoother_trace, 1.0, rtol, "trace")
        for name in ("reliable", "obs_reliable"):
            npt.assert_array_equal(getattr(mine, name), getattr(ref, name), err_msg=name)


def oracle_responses(x):
    """Three responses on one design: the series, a nonlinear transform
    and a residual-like mix; the series itself enters as ``None``."""
    return (None, np.sin(x) + 0.3 * x, x - 0.5 * np.roll(x, 1))


ORACLE_SPECS = [FcarSpec(p=p, d=1) for p in (1, 2, 3)] + [
    FcarSpec.delay_absorbed(p, 1) for p in (1, 2, 3)
] + [FcarSpec(p=3, d=2), FcarSpec.delay_absorbed(3, 3)]


def solve_on_one_design(x, spec, options, t_start, responses):
    design = fcar._fit_design(x, spec, options, t_start)
    return [fcar._solve_fit(design, x if r is None else r) for r in responses]


def assert_shared_design_matches(x, spec, options, t_start, responses, rtols=None):
    """One design solved for every response: each fit equals a solve on a
    fresh design bit for bit and the dense reference to its ``rtols`` entry
    (default 1e-12) of scale."""
    fits = solve_on_one_design(x, spec, options, t_start, responses)
    for fit, response, rtol in zip(fits, responses, rtols or [1e-12] * len(responses)):
        fresh = fcar._fit_design(x, spec, options, t_start)
        assert_fits_identical(fit, fcar._solve_fit(fresh, x if response is None else response))
        ref = ref_fit_fcar(x, spec, options, response=response, t_start=t_start)
        counts = dense_counts(fcar._fit_rows(x, spec, t_start).u, ref.curves[0].u, ref.bandwidth)
        assert_fits_close(fit, ref, counts, rtol)
    return fits


def escalation_case():
    """A design whose lag-2 block has one singular value at 3.5e-5 of its
    largest, a response in the span of the block's larger singular
    directions (from the dense SVD of D), which stays at the first cutoff,
    and a spike response, which raises it: the series, spec, design and
    the two responses."""
    from scipy.linalg import svd

    x = ar1_series(100, seed=0)
    spec = FcarSpec(p=2, d=1)
    design = fcar._fit_design(x, spec, None, None)
    block = design.blocks[1]
    good = block.sing > 1e-3 * block.sing[0]
    assert np.count_nonzero((block.sing > fcar._SPLINE_COND * block.sing[0]) & ~good) == 1
    rows = design.rows
    D = basis_eval(design.basis, rows.umap.to_unit(rows.u)) * rows.cols[1][:, None]
    U = svd(D, full_matrices=False)[0]
    in_span = np.zeros(x.size)
    in_span[rows.t] = U[:, good] @ np.random.default_rng(1).standard_normal(
        np.count_nonzero(good)
    )
    spike = np.zeros(x.size)
    spike[[40, 77, 91]] = (3.0, -2.0, 1.5)
    return x, spec, design, in_span, spike


def assert_batch_equals_each_solve(design, responses):
    """A solve of the stacked responses against a solve of each alone:
    every row of the batch equals the lone solve's fit, bit for bit."""
    batch = fcar._solve(design, np.array(responses))
    for r, response in enumerate(responses):
        fit = fcar._solve_fit(design, response)
        assert batch.fitted[r].tobytes() == fit.fitted.tobytes()
        assert batch.pseudos[:, r].tobytes() == fit.pseudos.tobytes()
        assert batch.obs_estimate[:, r].tobytes() == fit.obs_estimate.tobytes()
        assert batch.coefs[r].T.tobytes() == fit.spline_coeffs.tobytes()
    return batch


class TestDesignSolveOracle:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=repr)
    @pytest.mark.parametrize("t_start", [None, 9])
    def test_one_design_matches_reference_per_response(self, spec, t_start):
        x = simulate_expar2(Expar2Config(n_times=240, seed=spec.p + 7 * spec.d))
        fits = assert_shared_design_matches(x, spec, None, t_start, oracle_responses(x))
        for fit in fits:
            assert fit.t_start == max(spec.max_lag, t_start or 0)

    def test_cutoff_escalation_stays_per_response(self, monkeypatch):
        # the lag-2 block of this design has a singular value at 3.5e-5 of
        # its largest.  Any response with a component along it gets grossly
        # large coefficients, and the cutoff rises past that value; a
        # response in the span of the block's larger singular directions
        # (from the dense SVD of D) stays at the first cutoff.  That response
        # keeps the small singular value, so two stable factorizations of
        # the block agree only to eps times the kept condition number
        # (2.9e4), not to 1e-12
        x, spec, design, in_span, spike = escalation_case()
        block = design.blocks[1]
        good = block.sing > 1e-3 * block.sing[0]
        responses = (in_span, None, spike)
        kept_cond = block.sing[0] / block.sing[~good][0]
        rtols = [np.finfo(float).eps * kept_cond, 1e-12, 1e-12]
        fits = assert_shared_design_matches(x, spec, None, None, responses, rtols)
        monkeypatch.setattr(fcar, "_SPLINE_COND_MAX", fcar._SPLINE_COND)
        fixed = solve_on_one_design(x, spec, None, None, responses)
        moved = [not np.array_equal(a.spline_coeffs, b.spline_coeffs) for a, b in zip(fits, fixed)]
        assert moved == [False, True, True]

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=repr)
    @pytest.mark.parametrize("t_start", [None, 9])
    def test_batched_solve_equals_each_solve(self, spec, t_start):
        x = simulate_expar2(Expar2Config(n_times=240, seed=spec.p + 7 * spec.d))
        design = fcar._fit_design(x, spec, None, t_start)
        responses = [x if r is None else r for r in oracle_responses(x)]
        for batch in (responses, responses[::-1], responses[1:2], responses * 3):
            assert_batch_equals_each_solve(design, batch)

    def test_batched_solve_escalates_each_response_alone(self):
        # in a batch where only the spike raises the lag-2 block's cutoff,
        # the responses around it keep the first cutoff and their lone bits
        x, spec, design, in_span, spike = escalation_case()
        block = design.blocks[1]
        responses = (in_span, spike, 0.5 * in_span)
        batch = assert_batch_equals_each_solve(design, responses)
        conds = []
        for y in batch.ys:
            cap = 1e3 * max(fcar._abs_p95(y), 1e-12) / block.r_scale
            conds.append(fcar._truncated_solve(block, block.qt(y[None])[0], cap)[2])
        assert conds[0] == conds[2] == fcar._SPLINE_COND < conds[1]
        assert batch.ranks[0, 1] == batch.ranks[2, 1] > batch.ranks[1, 1]

    def test_singular_local_systems_match_reference(self):
        # a bandwidth far below the spacing of the sample leaves grid points
        # and observations with an empty or one-point window: NaN estimates
        x = ar2_series(150, seed=12)
        spec = FcarSpec.delay_absorbed(2, 1)
        options = FcarOptions(bandwidth=0.01 * float(np.ptp(x)))
        fits = assert_shared_design_matches(x, spec, options, 4, oracle_responses(x))
        for fit in fits:
            for curve in fit.curves:
                assert np.isnan(curve.estimate).any() and np.isnan(curve.obs_estimate).any()
                assert np.isfinite(curve.estimate).any()

    def test_degenerate_windows_keep_the_reference_flags(self):
        # u_t = x_{t-1}; lag 1's design column is u itself and lag 2's is
        # x_{t-2}.  Far from the bulk of u in [-1, 1] (h = 0.5) sit: an
        # isolated cluster of three tied u (rows 21, 41, 61), a lone u
        # (row 31), a near-tie pair 0.01 h apart (rows 51, 71), and a pair
        # whose lag-2 column is zero at one row (rows 46, 66).  A window
        # whose rows with a nonzero column hold one distinct u is singular,
        # so its level is NaN and its point adds nothing to the trace; the
        # near-tie pair still spans two distinct u and interpolates.
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 80)
        x[[20, 40, 60]] = 5.0
        x[30] = -5.0
        x[[50, 70]] = (8.0, 8.005)
        x[[44, 45, 65]] = (0.0, -8.0, -8.2)
        spec = FcarSpec(p=2, d=1)
        options = FcarOptions(n_knots=4, bandwidth=0.5)
        design = fcar._fit_design(x, spec, options, None)
        fit = fcar._solve_fit(design, x)
        want = ref_fit_fcar(x, spec, options)
        rows = {t: i for i, t in enumerate(design.rows.t)}
        nan_rows = {0: (21, 41, 61, 31), 1: (21, 41, 61, 31, 46, 66)}
        finite_rows = {0: (51, 71, 46, 66), 1: (51, 71)}
        for c, (mine, ref) in enumerate(zip(fit.curves, want.curves)):
            npt.assert_array_equal(np.isnan(mine.obs_estimate), np.isnan(ref.obs_estimate))
            npt.assert_array_equal(mine.obs_reliable, ref.obs_reliable)
            assert mine.smoother_trace == pytest.approx(ref.smoother_trace, rel=1e-9)
            assert all(np.isnan(ref.obs_estimate[rows[t]]) for t in nan_rows[c])
            assert all(np.isfinite(ref.obs_estimate[rows[t]]) for t in finite_rows[c])
            assert not ref.obs_reliable[[rows[t] for t in nan_rows[c] + finite_rows[c]]].any()
            fin = ref.obs_reliable
            npt.assert_allclose(
                mine.obs_estimate[fin], ref.obs_estimate[fin], rtol=0,
                atol=1e-10 * np.abs(ref.obs_estimate[fin]).max(),
            )


# ------------------------------------------------ running-moments oracle
# The observed-u levels come from running moments (``core._moment_smoother``):
# prefix sums over u-sorted observations, cut at bins of width h.  The
# window sweep they replace, ``ref_local_linear`` at the observed u, is
# their oracle.  Levels agree to 1e-10 of scale at points with at least
# MIN_LOCAL_OBS observations within one bandwidth, where the flags agree
# exactly; below that count a flag may differ.


def ref_obs_smoother(u, cols, ws, h):
    """The window sweep at the observed u: levels, well-posed flags,
    in-bandwidth counts and the smoother diagonal, one row per component."""
    m, n = len(cols), u.size
    est, diag = np.full((m, n), np.nan), np.full((m, n), np.nan)
    ok, n_raw = np.zeros((m, n), dtype=bool), np.zeros(n, dtype=int)
    k0 = kernel_values(np.zeros(1))[0] / h
    for sl, *_, n_in, fits in ref_local_linear(u, cols, ws, u, h):
        n_raw[sl] = n_in
        for c, (_, _, a11, det, good, level) in enumerate(fits):
            est[c, sl], ok[c, sl] = level, good
            diag[c, sl][good] = k0 * cols[c][sl][good] ** 2 * a11[good] / det[good]
    return est, ok, n_raw, diag


def assert_close_where_counted(got, want, n_raw, tol=1e-10):
    """Equal NaNs and values within ``tol`` of the largest |want| at points
    with at least MIN_LOCAL_OBS observations within one bandwidth."""
    many = n_raw >= fcar.MIN_LOCAL_OBS
    got, want = np.asarray(got)[..., many], np.asarray(want)[..., many]
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    scale = np.nanmax(np.abs(want), initial=0.0)
    npt.assert_allclose(got, want, rtol=0, atol=tol * scale, equal_nan=True)


def assert_smoother_matches_windows(smoother, u, cols, ws, h):
    est, ok, n_raw, diag = ref_obs_smoother(u, cols, ws, h)
    npt.assert_array_equal(smoother.n_raw, n_raw)
    many = n_raw >= fcar.MIN_LOCAL_OBS
    npt.assert_array_equal(smoother.ok[:, many], ok[:, many])
    assert_close_where_counted(smoother.levels(np.array(ws)[:, None])[:, 0], est, n_raw)
    assert_close_where_counted(smoother.diag(), diag, n_raw)
    npt.assert_allclose(np.nansum(smoother.diag(), axis=1), np.nansum(diag, axis=1), rtol=1e-10)


OBS_SPECS = [FcarSpec(p=p, d=1) for p in (1, 2, 3)] + [
    FcarSpec.delay_absorbed(p, 1) for p in (1, 2, 3)
]


class TestRunningMomentsOracle:
    @pytest.mark.parametrize("spec", OBS_SPECS, ids=repr)
    @pytest.mark.parametrize("T", [72, 480, 2880])
    def test_in_sample_levels_match_window_sweep(self, T, spec):
        # the pseudo-responses of a fit of the series itself, on its design
        x = simulate_expar2(Expar2Config(n_times=T, seed=T + spec.p))
        design = fcar._fit_design(x, spec, None, None)
        pseudos = fcar._solve_fit(design, x).pseudos
        rows = design.rows
        assert_smoother_matches_windows(design.obs, rows.u, rows.cols, pseudos, design.h)
        many = design.obs.n_raw >= fcar.MIN_LOCAL_OBS
        npt.assert_array_equal(design.reliable, design.obs.ok & many)

    @pytest.mark.parametrize("spec", OBS_SPECS, ids=repr)
    @pytest.mark.parametrize("T", [72, 480, 2880])
    def test_grid_curves_match_dense_sbk_estimate(self, monkeypatch, T, spec):
        # the curves of a fit of the series itself against the same curves
        # from direct kernel sums: flags and NaNs everywhere, values to
        # 1e-10 of scale where MIN_LOCAL_OBS observations back a point
        seen = []
        original = fcar.sbk_estimate

        def recording(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(fcar, "sbk_estimate", recording)
        x = simulate_expar2(Expar2Config(n_times=T, seed=T + spec.p))
        fit = fit_fcar(x, spec)
        assert not seen
        curves = fit.curves
        ((read, u_grid, prefit_variance),) = seen
        assert read is fit
        u, h = fit.u, fit.bandwidth
        want = dense_sbk_estimate(
            u, fit.cols, fit.pseudos, spec.components, u_grid, h, prefit_variance
        )
        scale = float(np.abs(x).max())
        grid_many = dense_counts(u, u_grid, h) >= fcar.MIN_LOCAL_OBS
        obs_many = dense_counts(u, u, h) >= fcar.MIN_LOCAL_OBS
        for mine, ref in zip(curves, want):
            npt.assert_array_equal(mine.reliable, ref.reliable)
            npt.assert_array_equal(mine.obs_reliable, ref.obs_reliable)
            for name, many in (("estimate", grid_many), ("lower", grid_many),
                               ("upper", grid_many), ("obs_estimate", obs_many)):
                got_c, want_c = getattr(mine, name), getattr(ref, name)
                npt.assert_array_equal(np.isnan(got_c), np.isnan(want_c), err_msg=name)
                assert_close_to_scale(got_c[many], want_c[many], scale, 1e-10, name)
            assert mine.sigma2 == pytest.approx(ref.sigma2, rel=1e-10)
            assert mine.smoother_trace == pytest.approx(ref.smoother_trace, rel=1e-10)

    @pytest.mark.parametrize("name", WINDOW_CASES)
    def test_window_cases_match_window_sweep(self, name):
        # wide windows, ties and dyadic values on bin and window edges, and
        # observations an ulp beyond another's bandwidth
        cases = [window_case(name, design) for design in ("intercept", "lag", "other")]
        u, _, _, _, h = cases[0]
        cols = tuple(case[1] for case in cases)
        smoother = _moment_smoother(u, np.array(cols), h, u)
        assert_smoother_matches_windows(smoother, u, cols, tuple(case[2] for case in cases), h)


def invariance_sample(seed, ties):
    """Points, two design columns (ones, and one with zeros) and responses."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    u = rng.standard_normal(n)
    if ties:
        u = np.round(4.0 * u) / 4.0
    c1 = rng.standard_normal(n)
    c1[rng.random(n) < 0.1] = 0.0
    cols = np.array([np.ones(n), c1])
    ws = cols * (0.5 + u**2) + 0.2 * rng.standard_normal((2, n))
    return u, cols, ws, float(rng.uniform(0.05, 1.5))


def smoother_levels(u, cols, ws, h):
    smoother = _moment_smoother(u, cols, h, u)
    return smoother, smoother.levels(ws[:, None])[:, 0]


def assert_products_agree(moved, moved_est, base, est, cols, ws, where):
    """Equal flags, and equal NaNs and close products est * c1 at the
    points ``where`` that MIN_LOCAL_OBS observations back.

    A fit reads a level only through est * c1.  Any move rounds the sums
    of the local 2 x 2 system, and its solve magnifies that rounding by the
    system's condition number, kappa = (g00 g11 + g01^2) / det: a window
    whose c1 nearly vanishes, or whose u nearly tie, is ill conditioned.
    So each product must agree to 1e-10 kappa of the response scale.  A
    shift by 12345.678 also rounds u itself by up to 9e-13, at most 2e-11
    of the smallest bandwidth drawn, which the bound covers."""
    npt.assert_array_equal(moved.ok[:, where], base.ok[:, where])
    where = where & (base.n_raw >= fcar.MIN_LOCAL_OBS)
    got, want = (moved_est * cols)[:, where], (est * cols)[:, where]
    npt.assert_array_equal(np.isnan(got), np.isnan(want))
    g00, g01, g11 = base.gram
    kappa = ((g00 * g11 + g01 * g01) * base.inv)[:, base.rank][:, where]
    fin = np.isfinite(want)
    bound = 1e-10 * kappa[fin] * np.abs(ws).max()
    assert np.all(np.abs(got[fin] - want[fin]) <= bound)


def invariance_grid(u, h):
    """41 points over the observed u, as a fit lays its curve grid."""
    return np.linspace(u.min(), u.max(), 41)


def grid_fit(u, cols, ws, h, grid):
    """The smoother's flags and levels at ``grid``: ok, the in-bandwidth
    count, the c1^2-weighted count that ``sbk_estimate`` also requires of
    a reliable point, and the levels."""
    smoother = _moment_smoother(u, cols, h, grid)
    info = smoother.window_sums(cols**2 / np.mean(cols**2, axis=1, keepdims=True))
    return smoother.ok, smoother.n_raw, info, smoother.levels(ws[:, None])[:, 0]


def assert_grid_fits_agree(got, want, where):
    """Equal flags and counts at the points ``where``, information counts to
    rounding, and levels within 1e-10 of scale where ``sbk_estimate``
    would call them reliable.  An unreliable level falls back to the
    spline; it may rest on a nearly singular system (a window whose c1 is
    nearly zero), whose level moves with the rounding of any move."""
    ok, n_raw, info, levels = want
    npt.assert_array_equal(got[0][:, where], ok[:, where])
    npt.assert_array_equal(got[1][where], n_raw[where])
    npt.assert_allclose(got[2][:, where], info[:, where], rtol=1e-12, atol=1e-12)
    reliable = ok & (n_raw >= fcar.MIN_LOCAL_OBS) & (info >= fcar.MIN_LOCAL_OBS) & where
    npt.assert_array_equal(np.isnan(got[3][:, where]), np.isnan(levels[:, where]))
    scale = np.abs(levels[reliable]).max(initial=0.0)
    npt.assert_allclose(got[3][reliable], levels[reliable], rtol=0, atol=1e-10 * scale)


class TestRunningMomentsInvariance:
    """Moving the observations must leave the levels within the oracle's
    tolerance: the bins are laid from the smallest u, so a shift or scale
    moves every bin edge with the points."""

    @given(data=st.data(), seed=st.integers(0, 10_000), ties=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_observation_order(self, data, seed, ties):
        u, cols, ws, h = invariance_sample(seed, ties)
        perm = np.array(data.draw(st.permutations(range(u.size))))
        base, est = smoother_levels(u, cols, ws, h)
        moved, moved_est = smoother_levels(u[perm], cols[:, perm], ws[:, perm], h)
        npt.assert_array_equal(moved.n_raw, base.n_raw[perm])
        npt.assert_array_equal(moved.ok, base.ok[:, perm])
        assert_close_where_counted(moved_est, est[:, perm], moved.n_raw)

    @given(seed=st.integers(0, 10_000), ties=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_shift_of_u(self, seed, ties):
        u, cols, ws, h = invariance_sample(seed, ties)
        base, est = smoother_levels(u, cols, ws, h)
        moved, moved_est = smoother_levels(u + 12345.678, cols, ws, h)
        same = moved.n_raw == base.n_raw
        assert same.mean() > 0.9
        assert_products_agree(moved, moved_est, base, est, cols, ws, same)

    @given(
        seed=st.integers(0, 10_000),
        ties=st.booleans(),
        factor=st.sampled_from([1e-3, 0.37, 3.0, 1e4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_common_scale_of_u_and_h(self, seed, ties, factor):
        u, cols, ws, h = invariance_sample(seed, ties)
        base, est = smoother_levels(u, cols, ws, h)
        moved, moved_est = smoother_levels(u * factor, cols, ws, h * factor)
        same = moved.n_raw == base.n_raw
        assert same.mean() > 0.9
        assert_products_agree(moved, moved_est, base, est, cols, ws, same)

    # the same three moves at evaluation points that are not observations

    @given(data=st.data(), seed=st.integers(0, 10_000), ties=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_observation_order_at_grid_points(self, data, seed, ties):
        u, cols, ws, h = invariance_sample(seed, ties)
        grid = invariance_grid(u, h)
        perm = np.array(data.draw(st.permutations(range(u.size))))
        base = grid_fit(u, cols, ws, h, grid)
        moved = grid_fit(u[perm], cols[:, perm], ws[:, perm], h, grid)
        assert_grid_fits_agree(moved, base, np.ones(grid.size, dtype=bool))

    @given(seed=st.integers(0, 10_000), ties=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_shift_of_u_and_grid(self, seed, ties):
        u, cols, ws, h = invariance_sample(seed, ties)
        grid = invariance_grid(u, h)
        base = grid_fit(u, cols, ws, h, grid)
        moved = grid_fit(u + 12345.678, cols, ws, h, grid + 12345.678)
        same = moved[1] == base[1]
        assert same.mean() > 0.9
        assert_grid_fits_agree(moved, base, same)

    @given(
        seed=st.integers(0, 10_000),
        ties=st.booleans(),
        factor=st.sampled_from([1e-3, 0.37, 3.0, 1e4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_common_scale_of_u_grid_and_h(self, seed, ties, factor):
        u, cols, ws, h = invariance_sample(seed, ties)
        grid = invariance_grid(u, h)
        base = grid_fit(u, cols, ws, h, grid)
        moved = grid_fit(u * factor, cols, ws, h * factor, grid * factor)
        same = moved[1] == base[1]
        assert same.mean() > 0.9
        assert_grid_fits_agree(moved, base, same)


# ------------------------------------------------ interval compression oracle
# Each spline block is factored by knot interval (a two-column QR per
# interval, then the SVD of the stacked triangles).  The dense SVD of the
# T-row block, ``ref_block_solve``, is its oracle.


def knot_series():
    """A series on the knots of ``SplineBasis(7)`` (u = 0..8 maps onto
    knots 0..8 exactly), whose rows leave interval 6 = [6, 7) empty,
    interval 4 with one row and interval 3 with only a tight cluster, whose
    two columns are nearly parallel; zeros make rows with reg = 0."""
    rng = np.random.default_rng(5)
    cluster = 3.3 + 1e-6 * rng.standard_normal(12)
    pool = [0.0, 0.0, 1.0, 1.5, 2.0, 2.5, 5.0, 5.2, 7.0, 7.6, 8.0]
    return np.concatenate([rng.permutation(pool), cluster, [4.5], rng.permutation(pool * 2)])


def assert_block_matches_dense(block, D):
    """One factored block against the dense SVD of its T-row block D."""
    from scipy.linalg import svd

    n, n_funcs = D.shape
    m = n_funcs - 1
    sing = svd(D, compute_uv=False)
    s0 = float(sing[0])
    npt.assert_allclose(block.sing, sing, rtol=0, atol=1e-12 * s0)
    # _truncated_solve keeps the first rank singular values
    assert np.all(np.diff(block.sing) <= 0.0)
    # R~'R~ = D'D, and Q~ R~ = D with orthonormal nonzero columns in Q~
    R = (block.U * block.sing) @ block.Vt
    assert R.shape == (2 * m, n_funcs)
    npt.assert_allclose(R.T @ R, D.T @ D, rtol=0, atol=1e-12 * s0**2)
    npt.assert_allclose(block.U.T @ block.U, np.eye(n_funcs), rtol=0, atol=1e-12)
    npt.assert_allclose(block.Vt @ block.Vt.T, np.eye(n_funcs), rtol=0, atol=1e-12)
    Q = np.zeros((n, 2 * m))
    Q[np.arange(n), 2 * block.k] = block.q0
    Q[np.arange(n), 2 * block.k + 1] = block.q1
    npt.assert_allclose(Q @ R, D, rtol=0, atol=1e-12 * s0)
    used = np.any(Q != 0.0, axis=0)
    npt.assert_allclose(Q[:, used].T @ Q[:, used], np.eye(used.sum()), rtol=0, atol=1e-12)


def block_solve(block, y, cap):
    """The truncated-SVD solve of the response rows ``y`` on one factored
    block and the band of its truncated inverse Gram matrix, as a pre-fit
    keeps it: the coefficients, the band, the rank and the cutoff."""
    coef, rank, cond = fcar._truncated_solve(block, block.qt(y[None])[0], cap)
    return coef, fcar._gram_band(block.sing[:rank], block.Vt[:rank]), rank, cond


def assert_block_solve_matches_dense(block, D, y, cap):
    """The truncated-SVD solve of ``y`` on a factored block against the
    dense one, with the same rank and cutoff; returns the solve
    (coefficients, band, rank, cutoff) and the dense residual variance."""
    solved = block_solve(block, y, cap)
    coef, band, rank, cond = solved
    ref_coef, ref_sigma2, ref_gram, ref_rank, ref_cond = ref_block_solve(D, y, cap)
    assert (rank, cond) == (ref_rank, ref_cond)
    npt.assert_allclose(coef, ref_coef, rtol=0, atol=1e-12 * np.abs(ref_coef).max())
    npt.assert_allclose(band, gram_band(ref_gram), rtol=0, atol=1e-12 * np.abs(ref_gram).max())
    return solved, ref_sigma2


def assert_compression_matches_dense(x, spec, basis, responses):
    rows = fcar._fit_rows(x, spec, None)
    tent, blocks = fcar._spline_design(rows, spec, basis)
    B = basis_eval(basis, rows.umap.to_unit(rows.u))
    dense = [B * reg[:, None] for reg in rows.cols]
    for block, D in zip(blocks, dense):
        assert_block_matches_dense(block, D)
    for response in responses:
        y = response[rows.t]
        prefit = spline_lstsq(tent, blocks, rows.cols, y)
        y_scale = max(float(np.percentile(np.abs(y), 95)), 1e-12)
        for c, (block, D) in enumerate(zip(blocks, dense)):
            cap = 1e3 * y_scale / block.r_scale
            (coef, band, _, _), ref_sigma2 = assert_block_solve_matches_dense(block, D, y, cap)
            npt.assert_array_equal(prefit.coeffs[:, c], coef)
            npt.assert_array_equal(prefit.bands[c], band)
            npt.assert_allclose(prefit.sigma2s[c], ref_sigma2, rtol=1e-12)


def occupancy_block(intervals, zero_reg, n_rows=60):
    """A block of ``SplineBasis(7)`` on hand-laid tent rows: each row in
    one of ``intervals`` (cycled), at a random fraction of it, with a
    random regressor that is 0 on the share ``zero_reg`` of the rows.
    Returns the factored block and its dense T-row block."""
    rng = np.random.default_rng(0)
    k = np.resize(np.asarray(intervals), n_rows)
    f = rng.uniform(0.0, 1.0, n_rows)
    reg = rng.standard_normal(n_rows)
    reg[rng.permutation(n_rows)[: int(zero_reg * n_rows)]] = 0.0
    n_funcs = SplineBasis(7).n_funcs
    block = fcar._spline_block(fcar._TentRows(k, f), reg, n_funcs, 1.0)
    D = np.zeros((n_rows, n_funcs))
    D[np.arange(n_rows), k] = (1.0 - f) * reg
    D[np.arange(n_rows), k + 1] = f * reg
    return block, D


COMPRESSION_SPECS = [FcarSpec(p=p, d=1) for p in (1, 2, 3)] + [
    FcarSpec.delay_absorbed(p, 1) for p in (1, 2, 3)
]


class TestIntervalCompression:
    @pytest.mark.parametrize("T", [72, 480, 2880])
    @pytest.mark.parametrize("spec", COMPRESSION_SPECS, ids=repr)
    def test_matches_dense_svd(self, T, spec):
        x = simulate_expar2(Expar2Config(n_times=T, seed=T + spec.p))
        spike = np.zeros(T)
        spike[[T // 3, T // 2]] = (50.0, -40.0)
        basis = SplineBasis(default_knot_count(T))
        assert_compression_matches_dense(x, spec, basis, (x, np.sin(3.0 * x), spike))

    @pytest.mark.parametrize(
        "spec", [FcarSpec(p=2, d=1), FcarSpec.delay_absorbed(2, 1), FcarSpec(p=3, d=2)], ids=repr
    )
    def test_empty_and_thin_intervals_and_knots(self, spec):
        x = knot_series()
        rows = fcar._fit_rows(x, spec, None)
        tent = fcar._tent_rows(SplineBasis(7), rows.umap.to_unit(rows.u))
        counts = np.bincount(tent.k, minlength=8)
        assert counts[6] == 0 and counts[4] == 1 and counts[3] >= 10
        assert np.any(tent.f == 0.0) and np.any(tent.f == 1.0)
        assert any(np.any(reg == 0.0) for reg in rows.cols)
        rng = np.random.default_rng(8)
        assert_compression_matches_dense(
            x, spec, SplineBasis(7), (x, rng.standard_normal(x.size), np.cos(x))
        )

    @pytest.mark.parametrize(
        "intervals, zero_reg, rank",
        [
            ([1, 2, 3, 4, 5, 6], 0.0, 7),
            ([0, 1, 2, 5, 6, 7], 0.0, 8),
            ([0, 1, 4, 5, 6, 7], 0.0, 8),
            ([4], 0.0, 2),
            ([0], 0.0, 2),
            ([7], 0.0, 2),
            (range(8), 0.3, 9),
            ([0, 3, 7], 0.5, 6),
        ],
        ids=[
            "first-and-last-empty",
            "two-empty-3-4",
            "two-empty-2-3",
            "only-interval-4",
            "only-first",
            "only-last",
            "zero-regressor-rows",
            "zero-rows-and-empty",
        ],
    )
    def test_rotation_chain_edge_cases(self, intervals, zero_reg, rank):
        # empty knot intervals leave zero rows in R~, so the rotation chain
        # meets columns with nothing to rotate (identity rotations) and
        # pending rows that vanish; two empty neighbours, or an empty end
        # interval, leave a tent without rows and lose one rank each
        block, D = occupancy_block(intervals, zero_reg)
        assert_block_matches_dense(block, D)
        rng = np.random.default_rng(3)
        spike = np.zeros(D.shape[0])
        spike[[5, 17]] = (4.0, -3.0)
        for y in (rng.standard_normal(D.shape[0]), D @ rng.standard_normal(D.shape[1]), spike):
            y_scale = max(float(np.percentile(np.abs(y), 95)), 1e-12)
            (_, _, got_rank, _), _ = assert_block_solve_matches_dense(block, D, y, 1e3 * y_scale)
            assert got_rank == rank

    def test_all_zero_block_raises(self):
        x = np.zeros(30)
        x[-2:] = (1.0, 0.5)
        with pytest.raises(ValueError, match="degenerate spline design"):
            spline_preestimate(x, FcarSpec(p=2, d=1), SplineBasis(2))


# ------------------------------------------------ pre-fit variance band oracle
# A solve keeps only the band of each block's truncated inverse Gram matrix
# G (``fcar._gram_band``), and the curves read the pre-estimate variance
# sigma^2 b(u)' G b(u) off it at the grid's tent rows.  The dense form,
# ``basis_eval(grid)`` around the dense SVD's G (``ref_block_solve``), is
# its oracle.


def assert_band_variance_matches_dense(x, spec, basis, y):
    """Every block's band form of b(u)' G b(u) on the curve grid against
    the dense form, to 1e-12 of its largest value; returns each block's
    (rank, cutoff) and the basis size."""
    rows = fcar._fit_rows(x, spec, None)
    tent, blocks = fcar._spline_design(rows, spec, basis)
    B = basis_eval(basis, rows.umap.to_unit(rows.u))
    grid = rows.umap.to_unit(np.linspace(rows.u.min(), rows.u.max(), fcar.GRID_SIZE))
    grid_B, grid_tent = basis_eval(basis, grid), fcar._tent_rows(basis, grid)
    y_rows = y[rows.t]
    y_scale = max(float(np.percentile(np.abs(y_rows), 95)), 1e-12)
    prefit = spline_lstsq(tent, blocks, rows.cols, y_rows)
    solved = []
    for c, (block, reg) in enumerate(zip(blocks, rows.cols)):
        cap = 1e3 * y_scale / block.r_scale
        _, band, rank, cond = block_solve(block, y_rows, cap)
        _, _, gram_inv, ref_rank, ref_cond = ref_block_solve(B * reg[:, None], y_rows, cap)
        assert (rank, cond) == (ref_rank, ref_cond)
        want = np.einsum("ij,jk,ik->i", grid_B, gram_inv, grid_B)
        got = grid_tent.quadratic(band)
        npt.assert_allclose(got, want, rtol=0, atol=1e-12 * want.max())
        npt.assert_array_equal(grid_tent.quadratic(prefit.bands[c]), got)
        solved.append((rank, cond))
    return solved, basis.n_funcs


class TestPrefitVarianceBand:
    @pytest.mark.parametrize("T", [72, 480, 2880])
    @pytest.mark.parametrize("spec", [FcarSpec(p=2, d=1), FcarSpec.delay_absorbed(3, 1)], ids=repr)
    def test_matches_dense_quadratic_form(self, T, spec):
        x = simulate_expar2(Expar2Config(n_times=T, seed=T + spec.p))
        spike = np.zeros(T)
        spike[[T // 3, T // 2]] = (50.0, -40.0)
        for y in (x, np.sin(3.0 * x), spike):
            assert_band_variance_matches_dense(x, spec, SplineBasis(default_knot_count(T)), y)

    def test_rank_deficient_block(self):
        # the lag-1 column is u itself, and every row on which the first
        # tent is nonzero has u = 0, so the lag-1 block loses a rank
        x = knot_series()
        solved, n_funcs = assert_band_variance_matches_dense(
            x, FcarSpec(p=2, d=1), SplineBasis(7), np.cos(x)
        )
        assert [rank < n_funcs for rank, _ in solved] == [True, False]

    def test_cutoff_escalation(self):
        # the lag-2 block of this design has a singular value at 3.5e-5 of
        # its largest, and a spiky response moves its cutoff past it
        # (``TestDesignSolveOracle.test_cutoff_escalation_stays_per_response``)
        x = ar1_series(100, seed=0)
        spike = np.zeros(x.size)
        spike[[40, 77, 91]] = (3.0, -2.0, 1.5)
        spec = FcarSpec(p=2, d=1)
        solved, _ = assert_band_variance_matches_dense(
            x, spec, SplineBasis(default_knot_count(x.size)), spike
        )
        assert solved[1][1] > fcar._SPLINE_COND

    def test_fit_keeps_the_covariance_band(self):
        # what a fit keeps per component: sigma^2 times the band, of
        # (N+2)-long rows, and no (N+2)^2 matrix
        x = simulate_expar2(Expar2Config(n_times=480, seed=4))
        spec = FcarSpec.delay_absorbed(2, 1)
        fit = fit_fcar(x, spec)
        _, prefit = spline_rows(x, spec, fit.basis)
        assert fit.prefit_cov.shape == (2, 2, fit.basis.n_funcs)
        for cov, s2, band in zip(fit.prefit_cov, prefit.sigma2s, prefit.bands):
            npt.assert_array_equal(cov, s2 * band)
            assert cov[1, -1] == 0.0


# ------------------------------------------------ design lifetime
# A fit keeps O(T + N) values and no part of its design: the design, its
# running-moments smoother and its spline blocks go when the call that
# built them returns, so a lattice fit holds one design at a time.


class TestDesignLifetime:
    def test_no_design_outlives_its_fit(self, monkeypatch):
        from skylattice import fcsar

        refs = []
        original = fcar._fit_design

        def tracked(*args, **kwargs):
            design = original(*args, **kwargs)
            refs.extend(weakref.ref(obj) for obj in (design, design.obs, *design.blocks))
            return design

        monkeypatch.setattr(fcar, "_fit_design", tracked)
        monkeypatch.setattr(fcsar, "_fit_design", tracked)
        x = simulate_expar2(Expar2Config(n_times=200, seed=1))
        spec = FcarSpec.delay_absorbed(2, 1)
        fits = [fit_fcar(x, spec)]
        layout = grid_layout(3, 3, spacing=90.0)
        field = simulate_field(FieldSimConfig(layout, 80, seed=2))
        lattice = FcsarSpec.uniform(build_neighbor_graph(layout, 2), 1, spec)
        options = FcarOptions(n_knots=4)
        for freeze in (False, True):
            fits += fit_fcsar(field, lattice, options, freeze_beta_at_zero=freeze).fcar_fits
        gc.collect()
        # one design per fit_fcar call and per sensor of each lattice fit,
        # each with a smoother and two blocks
        assert len(refs) == (1 + 9 + 9) * 4
        assert all(ref() is None for ref in refs)
        # and every fit still builds its curves
        assert all(len(fit.curves) == 2 for fit in fits)

    def test_fit_shares_the_rows_it_was_solved_on(self):
        # a solve copies nothing of its design into the fit: the rows' u,
        # design columns and observed-u flags are read-only and shared
        x = simulate_expar2(Expar2Config(n_times=200, seed=1))
        design = fcar._fit_design(x, FcarSpec.delay_absorbed(2, 1), None, None)
        fit = fcar._solve_fit(design, x)
        assert fit.u is design.rows.u
        assert fit.cols is design.rows.cols
        assert fit.obs_reliable is design.reliable
        for name in ("spline_coeffs", "fitted", "residuals", "pseudos", "obs_estimate",
                     "prefit_cov", "u", "cols", "obs_reliable"):
            assert not getattr(fit, name).flags.writeable, name

    def test_frozen_owner_kept_and_anything_else_copied(self):
        owner = fcar._kept(np.arange(6.0))
        assert fcar._kept(owner) is owner
        # a read-only view of writable values, a writable array, another
        # dtype and a non-contiguous view are copied
        base = np.arange(6.0)
        view = base[:3]
        view.flags.writeable = False
        for x, dtype in ((view, float), (base, float), (owner, int), (owner[::2], float)):
            out = fcar._kept(x, dtype=dtype)
            assert not np.shares_memory(out, x)
            assert not out.flags.writeable
