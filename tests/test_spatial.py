"""Tests for the spatial lattice model and natural-neighbor interpolation."""

import math
import time

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skylattice.core import SensorLayout, SpatioTemporalField, detrend, grid_layout
from skylattice.simulation import FieldSimConfig, simulate_field
from skylattice.spatial import (
    _RHO_SCAN,
    _RHO_TOL,
    NeighborGraph,
    SarFit,
    _ColumnError,
    _logdet,
    _profile,
    _sar_fit_columns,
    build_neighbor_graph,
    natural_neighbor_predict,
    sar_fit_ml,
    sar_residuals_field,
    voronoi_weights,
)


def square_layout():
    return SensorLayout(
        ("a", "b", "c", "d"),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    )


def make_field(layout, values, t0=1000.0, dt=60.0):
    values = np.asarray(values, dtype=float)
    ts = t0 + dt * np.arange(values.shape[1])
    return SpatioTemporalField(layout, ts, values)


def profile_loglik_oracle(rho, y, W):
    """Independent profile computation via slogdet."""
    S = y.size
    A = np.eye(S) - rho * W
    sign, logdet = np.linalg.slogdet(A)
    r = A @ y
    rss = float(r @ r)
    return logdet - 0.5 * S * np.log(rss / S)


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


def scalar_sar_fit_ml(y: np.ndarray, graph: NeighborGraph) -> SarFit:
    """The one-column scan and golden-section search, kept as the oracle."""
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


def scan_argmax(y, graph):
    """Index of the best of the 201 scan points, by the slogdet profile."""
    fit = scalar_sar_fit_ml(y, graph)
    grid = np.linspace(*fit.rho_interval, _RHO_SCAN)
    return int(np.argmax([profile_loglik_oracle(r, y, graph.W) for r in grid]))


def edge_column(graph, which, rng):
    """Eigenvector of W's smallest or largest real eigenvalue plus 1e-6 noise.

    Its profile peaks within about 1e-5 of that end of the admissible
    interval, so the scan's best point is grid point 0 or 200.
    """
    lam, vec = np.linalg.eig(graph.W)
    real = np.flatnonzero(np.abs(lam.imag) <= 1e-9 * np.maximum(1.0, np.abs(lam)))
    pick = real[np.argmin(lam.real[real]) if which == "lo" else np.argmax(lam.real[real])]
    v = vec[:, pick].real
    return v / np.linalg.norm(v) + 1e-6 * rng.standard_normal(v.size)


def zero_weight_graph(layout):
    """A graph with W = 0: RSS is constant in rho and every eigenvalue is 0."""
    return NeighborGraph(
        layout=layout,
        k=1,
        neighbors=build_neighbor_graph(layout, 1).neighbors,
        W=np.zeros((layout.n_sensors, layout.n_sensors)),
    )


def mixed_columns(graph, rng, T=24):
    """iid, SAR-coupled, constant and interval-edge columns, interleaved."""
    S = graph.n_sensors
    lo, hi = graph.rho_interval
    coupled = np.linalg.solve(np.eye(S) - 0.6 * hi * graph.W, np.eye(S))
    cols = []
    for j in range(T):
        kind = j % 6
        if kind == 0:
            cols.append(rng.standard_normal(S))
        elif kind == 1:
            cols.append(coupled @ rng.standard_normal(S))
        elif kind == 2:
            cols.append(np.full(S, rng.uniform(-20.0, 20.0)))
        elif kind == 3:
            cols.append(edge_column(graph, "lo", rng))
        elif kind == 4:
            cols.append(edge_column(graph, "hi", rng))
        else:
            cols.append(500.0 + 40.0 * rng.standard_normal(S))
    return np.column_stack(cols)


def assert_matches_scalar_oracle(values, graph):
    """The field fit equals the scalar oracle and the one-column fit, bit for bit."""
    field = make_field(graph.layout, values)
    res = sar_residuals_field(field, graph)
    T = field.n_times
    oracle = [scalar_sar_fit_ml(field.values[:, j], graph) for j in range(T)]
    assert np.array_equal(res.trace.rho, [f.rho for f in oracle])
    assert np.array_equal(res.trace.sigma2, [f.sigma2 for f in oracle])
    assert np.array_equal(res.trace.loglik, [f.loglik for f in oracle])
    assert np.array_equal(
        res.field.values, np.column_stack([f.residuals for f in oracle])
    )
    for j in range(T):
        fit = sar_fit_ml(field.values[:, j], graph)
        assert fit.rho_interval == oracle[j].rho_interval
        assert fit.rho == res.trace.rho[j]
        assert fit.sigma2 == res.trace.sigma2[j]
        assert fit.loglik == res.trace.loglik[j]
        assert np.array_equal(fit.residuals, res.field.values[:, j])
    return res


class TestBuildNeighborGraph:
    def test_collinear_single_neighbor(self):
        lay = SensorLayout(
            ("a", "b", "c"), np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        )
        g = build_neighbor_graph(lay, 1)
        # middle sensor is equidistant from both ends; the id order decides
        assert g.neighbors == ((1,), (0,), (1,))
        npt.assert_allclose(
            g.W, [[0, 1, 0], [1, 0, 0], [0, 1, 0]], atol=0
        )

    def test_grid_corner_neighbors(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        corner = g.neighbors[0]
        assert [lay.ids[j] for j in corner] == ["s01", "s04"]

    def test_matches_brute_force_ordering(self):
        lay = grid_layout(4, 4, 2.5)
        g = build_neighbor_graph(lay, 3)
        for i in range(lay.n_sensors):
            d = np.linalg.norm(lay.xy - lay.xy[i], axis=1)
            expect = sorted(
                (j for j in range(lay.n_sensors) if j != i),
                key=lambda j: (d[j], lay.ids[j]),
            )[:3]
            assert list(g.neighbors[i]) == expect

    def test_row_standardized_weights(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        npt.assert_allclose(g.W.sum(axis=1), 1.0, atol=1e-15)
        npt.assert_allclose(np.diag(g.W), 0.0, atol=0)
        assert np.all(g.W >= 0)

    def test_admissible_interval_brackets_zero(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        lo, hi = g.rho_interval
        assert lo < 0.0 < hi
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_invalid_k_raises(self):
        lay = square_layout()
        with pytest.raises(ValueError, match="k"):
            build_neighbor_graph(lay, 0)
        with pytest.raises(ValueError, match="k"):
            build_neighbor_graph(lay, 4)


class TestSarFitMl:
    def test_null_case_centered_at_zero(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        rng = np.random.default_rng(0)
        rhos = [sar_fit_ml(rng.standard_normal(16), g).rho for _ in range(200)]
        assert abs(float(np.mean(rhos))) < 0.05

    def test_recovers_known_coupling(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        A = np.linalg.solve(np.eye(16) - 0.5 * g.W, np.eye(16))
        rng = np.random.default_rng(0)
        rhos = [sar_fit_ml(A @ rng.standard_normal(16), g).rho for _ in range(200)]
        assert abs(float(np.mean(rhos)) - 0.5) < 0.1

    def test_beats_fine_grid_search(self):
        g = build_neighbor_graph(square_layout(), 2)
        y = np.random.default_rng(3).standard_normal(4)
        fit = sar_fit_ml(y, g)
        lo, hi = fit.rho_interval
        grid = np.linspace(lo, hi, 1000)
        vals = [profile_loglik_oracle(r, y, g.W) for r in grid]
        best = int(np.argmax(vals))
        assert abs(fit.rho - grid[best]) <= grid[1] - grid[0]
        assert profile_loglik_oracle(fit.rho, y, g.W) >= vals[best] - 1e-12

    def test_no_worse_than_coarse_grid(self):
        g = build_neighbor_graph(grid_layout(3, 3, 1.0), 2)
        rng = np.random.default_rng(11)
        for _ in range(5):
            y = rng.standard_normal(9)
            fit = sar_fit_ml(y, g)
            lo, hi = fit.rho_interval
            grid_vals = [
                profile_loglik_oracle(r, y, g.W) for r in np.linspace(lo, hi, 201)
            ]
            assert profile_loglik_oracle(fit.rho, y, g.W) >= max(grid_vals) - 1e-12

    def test_rho_strictly_inside_interval(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        rng = np.random.default_rng(8)
        for _ in range(10):
            fit = sar_fit_ml(rng.standard_normal(16), g)
            lo, hi = fit.rho_interval
            assert lo < fit.rho < hi

    def test_residual_and_variance_formulas(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        y = np.random.default_rng(2).standard_normal(16)
        fit = sar_fit_ml(y, g)
        npt.assert_allclose(fit.residuals, y - fit.rho * (g.W @ y), atol=1e-12)
        npt.assert_allclose(
            fit.sigma2, float(fit.residuals @ fit.residuals) / 16, atol=1e-12
        )
        assert np.isfinite(fit.loglik)

    def test_bad_inputs_raise(self):
        g = build_neighbor_graph(square_layout(), 2)
        with pytest.raises(ValueError, match=r"^y must have shape \(4,\) to match"):
            sar_fit_ml(np.zeros(5), g)
        with pytest.raises(ValueError, match="^y must be finite$"):
            sar_fit_ml(np.array([1.0, np.nan, 0.0, 2.0]), g)
        with pytest.raises(
            ValueError,
            match="^profile likelihood is not finite: y is identically zero$",
        ):
            sar_fit_ml(np.zeros(4), g)

    def test_collapsed_interval_raises(self):
        lay = square_layout()
        g = build_neighbor_graph(lay, 2)
        # infinite eigenvalues put both interval ends at zero
        flat = NeighborGraph(
            layout=lay,
            k=2,
            neighbors=g.neighbors,
            W=g.W,
            eigenvalues=np.array([np.inf, -np.inf, 0.0, 0.0]),
        )
        with pytest.raises(ValueError, match="^admissible rho interval collapsed$"):
            sar_fit_ml(np.ones(4), flat)
        with pytest.raises(ValueError, match="^y must be finite$"):
            sar_fit_ml(np.array([1.0, np.inf, 0.0, 2.0]), flat)
        # every column fails; the first is named with its own first failed check
        vals = np.ones((4, 3))
        with pytest.raises(_ColumnError, match="^admissible rho interval collapsed$") as info:
            _sar_fit_columns(vals, flat)
        assert info.value.column == 0
        vals[:, 0] = 0.0
        with pytest.raises(_ColumnError, match="identically zero$") as info:
            _sar_fit_columns(vals, flat)
        assert info.value.column == 0


class TestLockstepMatchesScalarOracle:
    """The lockstep field fit reproduces the one-column scalar fit exactly."""

    @pytest.mark.parametrize("side", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_mixed_columns(self, side, k):
        g = build_neighbor_graph(grid_layout(side, side, 1.0), k)
        rng = np.random.default_rng(100 * side + k)
        assert_matches_scalar_oracle(mixed_columns(g, rng), g)

    def test_binary_weights(self):
        # 0/1 weights: every row sums to k, so W is not row-stochastic
        row = build_neighbor_graph(grid_layout(4, 4, 1.0), 3)
        g = NeighborGraph(row.layout, row.k, row.neighbors, (row.W > 0).astype(float))
        npt.assert_array_equal(g.W.sum(axis=1), 3.0)
        assert_matches_scalar_oracle(mixed_columns(g, np.random.default_rng(7)), g)

    def test_fixtures_cover_complex_eigenvalues(self):
        complex_graphs = [
            (side, k)
            for side in (3, 4, 5)
            for k in (1, 2, 3, 4)
            if np.any(
                np.abs(build_neighbor_graph(grid_layout(side, side, 1.0), k).eigenvalues.imag)
                > 1e-9
            )
        ]
        assert len(complex_graphs) >= 6

    @pytest.mark.parametrize("which, point", [("lo", 0), ("hi", _RHO_SCAN - 1)])
    def test_edge_columns_use_half_width_bracket(self, which, point):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        rng = np.random.default_rng(4)
        vals = np.column_stack([edge_column(g, which, rng) for _ in range(5)])
        for j in range(5):
            assert scan_argmax(vals[:, j], g) == point
        assert_matches_scalar_oracle(vals, g)

    def test_variance_near_one_over_two_pi(self):
        """2*pi*sigma2 within 1% of 1, where numpy's log and libm's disagree most."""
        g = build_neighbor_graph(grid_layout(3, 3, 1.0), 2)
        vals = np.random.default_rng(21).standard_normal((9, 150))
        sigma2 = sar_residuals_field(make_field(g.layout, vals), g).trace.sigma2
        target = (1.0 + np.linspace(-0.01, 0.01, 150)) / (2.0 * np.pi)
        res = assert_matches_scalar_oracle(vals * np.sqrt(target / sigma2), g)
        npt.assert_allclose(2.0 * np.pi * res.trace.sigma2, 1.0, atol=0.011)

    def test_flat_profile_keeps_the_first_point(self):
        """With W = 0 every evaluated point ties and the first scan point stays best."""
        flat = zero_weight_graph(grid_layout(3, 3, 1.0))
        vals = np.random.default_rng(6).standard_normal((9, 4))
        res = assert_matches_scalar_oracle(vals, flat)
        lo, _ = sar_fit_ml(vals[:, 0], flat).rho_interval
        assert np.all(res.trace.rho == lo)

    def test_loglik_rounds_with_libm_log(self):
        """Columns whose log-likelihood would round otherwise under numpy's log.

        With W = 0 the residual is the column itself, so a column holding v
        and zeros has sigma2 = v*v/16 exactly.
        """
        flat = zero_weight_graph(grid_layout(4, 4, 1.0))
        v = np.linspace(2.0, 4.0, 200_001)
        x = 2.0 * math.pi * (v * v / 16)
        libm = np.frompyfunc(math.log, 1, 1)(x).astype(float)
        picked = v[np.log(x) + 1.0 != libm + 1.0][:40]
        assert picked.size == 40
        vals = np.zeros((16, picked.size))
        vals[0] = picked
        assert_matches_scalar_oracle(vals, flat)

    def test_profile_matches_scalar_expression(self):
        """Element by element, with RSS/S near 1 and some RSS not positive."""
        S = 9
        eig = build_neighbor_graph(grid_layout(3, 3, 1.0), 2).eigenvalues
        rng = np.random.default_rng(13)
        n = 4000
        rho = rng.uniform(-0.9, 0.9, n)
        qb = rng.standard_normal(n)
        qc = rng.uniform(0.1, 2.0, n)
        qa = S * rng.uniform(0.99, 1.01, n) + 2.0 * rho * qb - rho * rho * qc
        qa[::50], qb[::50], qc[::50] = -1.0, 0.0, 0.0
        expect = []
        for r, a, b, c in zip(rho, qa, qb, qc):
            rss = a - 2.0 * r * b + r * r * c
            if rss <= 0.0 or not np.isfinite(rss):
                expect.append(-np.inf)
                continue
            logdet = float(np.sum(np.log(np.abs(1.0 - r * eig))))
            expect.append(logdet - 0.5 * S * math.log(rss / S))
        got = _profile(_logdet(rho, eig), rho, qa, qb, qc, S)
        assert np.array_equal(got, expect)
        assert np.count_nonzero(np.isinf(got)) == n // 50

    def test_single_column(self):
        g = build_neighbor_graph(grid_layout(3, 3, 1.0), 2)
        vals = np.random.default_rng(12).standard_normal((9, 1))
        res = assert_matches_scalar_oracle(vals, g)
        assert res.trace.rho.shape == (1,)

    @pytest.mark.parametrize("seed, k", [(0, 2), (5, 3)])
    def test_detrended_diurnal_field(self, seed, k):
        raw = simulate_field(
            FieldSimConfig(
                layout=grid_layout(4, 4, 90.0),
                n_times=360,
                dt_seconds=30.0,
                diurnal_amplitude=600.0,
                seed=seed,
            )
        )
        field, _ = detrend(raw)
        g = build_neighbor_graph(field.layout, k)
        assert_matches_scalar_oracle(field.values, g)


class TestSarTimePermutation:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        perm=st.integers(1, 14).flatmap(lambda T: st.permutations(range(T))),
    )
    def test_permuting_columns_permutes_the_fit(self, seed, perm):
        """No column of the lockstep fit influences another."""
        g = build_neighbor_graph(grid_layout(3, 4, 1.0), 2)
        vals = mixed_columns(g, np.random.default_rng(seed), T=len(perm))
        perm = np.array(perm)
        base = sar_residuals_field(make_field(g.layout, vals), g)
        moved = sar_residuals_field(make_field(g.layout, vals[:, perm]), g)
        for name in ("rho", "sigma2", "loglik"):
            assert np.array_equal(
                getattr(moved.trace, name), getattr(base.trace, name)[perm]
            )
        assert np.array_equal(moved.field.values, base.field.values[:, perm])


class TestSarResidualsField:
    def test_columns_match_single_slice_fits(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(5).standard_normal((16, 12))
        field = make_field(lay, vals)
        res = sar_residuals_field(field, g)
        assert res.field.kind == "residual"
        npt.assert_allclose(res.trace.timestamps, field.timestamps, atol=0)
        for j in range(12):
            fit = sar_fit_ml(vals[:, j], g)
            npt.assert_allclose(res.field.values[:, j], fit.residuals, atol=0)
            assert res.trace.rho[j] == fit.rho
            assert res.trace.loglik[j] == fit.loglik

    def test_iid_noise_trace_centered_at_zero(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(5).standard_normal((16, 144))
        res = sar_residuals_field(make_field(lay, vals), g)
        assert abs(float(res.trace.rho.mean())) < 0.05

    def test_constant_slice_residual_pattern(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        levels = np.array([3.0, -1.5, 0.7, 12.0])
        vals = np.tile(levels, (16, 1))
        res = sar_residuals_field(make_field(lay, vals), g)
        for j, c in enumerate(levels):
            expect = (1.0 - res.trace.rho[j]) * c
            npt.assert_allclose(res.field.values[:, j], expect, atol=1e-9)

    def test_memory_order_of_the_input_does_not_matter(self):
        """A field stores its values C-ordered, so BLAS sums each column in
        the same order whatever order the caller's array had."""
        g = build_neighbor_graph(grid_layout(3, 4, 1.0), 2)
        vals = mixed_columns(g, np.random.default_rng(12), T=48)
        fortran = np.asfortranarray(vals)
        assert not fortran.flags.c_contiguous
        moved = make_field(g.layout, fortran)
        assert moved.values.flags.c_contiguous
        base = sar_residuals_field(make_field(g.layout, vals), g)
        other = sar_residuals_field(moved, g)
        for name in ("rho", "sigma2", "loglik"):
            assert np.array_equal(getattr(other.trace, name), getattr(base.trace, name))
        assert np.array_equal(other.field.values, base.field.values)

    def test_desk_scale_runtime(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(9).standard_normal((16, 2880))
        field = make_field(lay, vals)
        t0 = time.monotonic()
        sar_residuals_field(field, g)
        assert time.monotonic() - t0 < 2.0

    def test_failing_column_names_time_index(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(1).standard_normal((16, 5))
        vals[:, 3] = 0.0
        with pytest.raises(ValueError, match="time index 3"):
            sar_residuals_field(make_field(lay, vals), g)

    def test_first_of_several_failing_columns_is_named(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(1).standard_normal((16, 6))
        vals[:, 2] = 0.0
        vals[:, 4] = 0.0
        with pytest.raises(
            ValueError,
            match=(
                r"^SAR fit failed at time index 2 \(t=1120\): "
                "profile likelihood is not finite: y is identically zero$"
            ),
        ):
            sar_residuals_field(make_field(lay, vals), g)

    def test_underflowing_column_is_named(self):
        """Values near 1e-162 make RSS/S underflow to 0, where math.log has no value."""
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(0).standard_normal((16, 4))
        vals[:, 2] *= 1e-162
        with pytest.raises(ValueError, match="^math domain error$"):
            scalar_sar_fit_ml(vals[:, 2], g)
        with pytest.raises(
            ValueError,
            match=r"^SAR fit failed at time index 2 \(t=1120\): math domain error$",
        ):
            sar_residuals_field(make_field(lay, vals), g)
        vals[:, 1] = 0.0
        with pytest.raises(ValueError, match="time index 1 .*identically zero$"):
            sar_residuals_field(make_field(lay, vals), g)

    def test_tiny_columns_fail_like_the_scalar_fit(self):
        """Across the scales where RSS underflows, in the scan or only after it."""
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        lam, vec = np.linalg.eig(g.W)
        y = vec[:, np.argmax(lam.real)].real
        outcomes = set()
        for e in np.arange(-150.0, -156.0, -0.125):
            col = 10.0**e * y
            try:
                expect = scalar_sar_fit_ml(col, g)
            except ValueError as exc:
                outcomes.add(str(exc))
                with pytest.raises(ValueError) as info:
                    sar_residuals_field(make_field(lay, col[:, None]), g)
                assert str(info.value) == f"SAR fit failed at time index 0 (t=1000): {exc}"
                continue
            outcomes.add("fitted")
            res = sar_residuals_field(make_field(lay, col[:, None]), g)
            assert res.trace.rho[0] == expect.rho
            assert res.trace.loglik[0] == expect.loglik
            assert np.array_equal(res.field.values[:, 0], expect.residuals)
        assert {"fitted", "math domain error"} <= outcomes

    @pytest.mark.parametrize(
        "bad, first, message",
        [
            ({2: np.nan, 4: 0.0}, 2, "y must be finite"),
            ({1: 0.0, 3: np.inf}, 1, "profile likelihood is not finite: y is identically zero"),
        ],
    )
    def test_first_failing_column_of_a_matrix(self, bad, first, message):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        vals = np.random.default_rng(2).standard_normal((16, 6))
        for j, v in bad.items():
            vals[:, j] = v
        with pytest.raises(_ColumnError) as info:
            _sar_fit_columns(vals, g)
        assert info.value.column == first
        assert str(info.value) == message

    def test_layout_mismatch_raises(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        other = grid_layout(3, 3, 1.0)
        field = make_field(other, np.random.default_rng(0).standard_normal((9, 4)))
        with pytest.raises(ValueError, match="layout"):
            sar_residuals_field(field, g)

    def test_masked_field_raises(self):
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(0).standard_normal((16, 4))
        mask = np.zeros_like(vals, dtype=bool)
        mask[2, 1] = True
        vals = vals.copy()
        vals[2, 1] = np.nan
        field = SpatioTemporalField(
            lay, 1000.0 + 60.0 * np.arange(4), vals, mask=mask
        )
        with pytest.raises(ValueError, match="complete"):
            sar_residuals_field(field, g)


class TestVoronoiWeights:
    def test_query_at_sensor_takes_all_weight(self):
        lay = grid_layout(4, 4, 1.0)
        w = voronoi_weights(lay, (2.0, 1.0))
        assert w.pairs == ((lay.index_of("s06"), 1.0),)
        assert not w.hull_fallback

    def test_square_centroid_splits_evenly(self):
        w = voronoi_weights(square_layout(), (0.5, 0.5))
        assert len(w.pairs) == 4
        for _, wi in w.pairs:
            assert wi == pytest.approx(0.25, abs=1e-9)

    def test_weights_normalized_and_nonnegative(self):
        lay = grid_layout(4, 4, 1.0)
        rng = np.random.default_rng(17)
        for _ in range(10):
            q = tuple(rng.uniform(0.2, 2.8, 2))
            w = voronoi_weights(lay, q)
            assert not w.hull_fallback
            total = sum(wi for _, wi in w.pairs)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert all(wi >= 0 for _, wi in w.pairs)

    def test_matches_monte_carlo_areas(self):
        lay = grid_layout(4, 4, 1.0)
        rng = np.random.default_rng(23)
        samples = rng.uniform(-1.5, 4.5, size=(1_000_000, 2))
        d_sensors = np.linalg.norm(
            samples[:, None, :] - lay.xy[None, :, :], axis=2
        )
        nearest = np.argmin(d_sensors, axis=1)
        d_min = d_sensors[np.arange(samples.shape[0]), nearest]
        for q in ((1.3, 1.4), (0.6, 2.2)):
            w = voronoi_weights(lay, q)
            dq = np.linalg.norm(samples - np.asarray(q), axis=1)
            won = dq < d_min
            n_won = int(np.count_nonzero(won))
            mc = np.bincount(nearest[won], minlength=16) / n_won
            npt.assert_allclose(w.as_vector(16), mc, atol=0.01)

    def test_continuous_in_the_query(self):
        lay = grid_layout(4, 4, 1.0)
        base = voronoi_weights(lay, (1.3, 1.4)).as_vector(16)
        for dx, dy in ((0.01, 0), (-0.01, 0), (0, 0.01), (0, -0.01)):
            moved = voronoi_weights(lay, (1.3 + dx, 1.4 + dy)).as_vector(16)
            assert float(np.max(np.abs(moved - base))) < 0.05

    def test_outside_hull_falls_back_to_nearest(self):
        lay = grid_layout(4, 4, 1.0)
        w = voronoi_weights(lay, (-0.7, -0.2))
        assert w.hull_fallback
        assert w.pairs == ((0, 1.0),)

    def test_on_hull_edge_falls_back_deterministically(self):
        lay = grid_layout(4, 4, 1.0)
        w = voronoi_weights(lay, (1.5, 0.0))
        assert w.hull_fallback
        # equidistant between s01 and s02; the id order decides
        assert w.pairs == ((lay.index_of("s01"), 1.0),)

    def test_collinear_layout_raises(self):
        lay = SensorLayout(
            ("a", "b", "c"), np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        )
        with pytest.raises(ValueError, match="degenerate"):
            voronoi_weights(lay, (0.5, 0.0))


class TestNaturalNeighborPredict:
    def test_common_series_reproduced_exactly(self):
        lay = grid_layout(4, 4, 1.0)
        series = np.sin(np.linspace(0, 3, 20)) * 100 + 400
        vals = np.tile(series, (16, 1))
        field = make_field(lay, vals)
        train = lay.subset([s for s in lay.ids if s != "s05"])
        pred = natural_neighbor_predict(field, train, "s05")
        npt.assert_allclose(pred.values, series, atol=1e-9)
        assert not pred.weights.hull_fallback

    def test_linear_field_reproduced(self):
        lay = grid_layout(4, 4, 1.0)
        T = 12
        vals = np.empty((16, T))
        for t in range(T):
            a, b, c = 0.3 + 0.1 * t, -0.2 + 0.05 * t, 2.0 + t
            vals[:, t] = a * lay.xy[:, 0] + b * lay.xy[:, 1] + c
        field = make_field(lay, vals)
        train = lay.subset([s for s in lay.ids if s != "s09"])
        pred = natural_neighbor_predict(field, train, "s09")
        npt.assert_allclose(pred.values, vals[lay.index_of("s09")], atol=1e-9)

    def test_missing_corner_uses_hull_fallback(self):
        lay = grid_layout(4, 4, 1.0)
        vals = np.random.default_rng(3).standard_normal((16, 8))
        field = make_field(lay, vals)
        train = lay.subset([s for s in lay.ids if s != "s00"])
        pred = natural_neighbor_predict(field, train, "s00")
        assert pred.weights.hull_fallback
        idx, weight = pred.weights.pairs[0]
        assert weight == 1.0
        npt.assert_allclose(pred.values, vals[field.layout.index_of(train.ids[idx])])

    def test_query_sensor_must_be_held_out(self):
        lay = grid_layout(4, 4, 1.0)
        vals = np.random.default_rng(3).standard_normal((16, 4))
        field = make_field(lay, vals)
        with pytest.raises(ValueError, match="excluded"):
            natural_neighbor_predict(field, lay, "s05")
