"""Tests for the spatial lattice model and natural-neighbor interpolation."""

import math
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skylattice import spatial
from skylattice.cli import main as cli_main
from skylattice.core import (
    SensorLayout,
    SpatioTemporalField,
    detrend,
    grid_layout,
    ingest_field,
    read_layout_csv,
    read_measurements_csv,
)
from skylattice.fcar import FcarOptions, FcarSpec
from skylattice.fcsar import fit_separable
from skylattice.simulation import FieldSimConfig, simulate_field
from skylattice.spatial import (
    _RHO_SCAN,
    _RHO_STEPS,
    NeighborGraph,
    SarFit,
    _ColumnError,
    _sar_fit_columns,
    _score,
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


UNDERFLOW = "residual variance underflows to zero: y is too small to fit"
# tolerance of the golden-section search that fit rho before the score root
GOLDEN_TOL = 1e-6


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


def _trimmed_interval(graph):
    lo, hi = graph.rho_interval
    margin = 1e-9 * (hi - lo)
    return lo + margin, hi - margin


def golden_sar_rho(y: np.ndarray, graph: NeighborGraph) -> tuple[float, float]:
    """The scan and golden-section search that fit rho before the score root.

    Returns the best rho ever evaluated and its profile value; kept as a
    second reference, good to its own 1e-6 tolerance.
    """
    wy = graph.W @ y
    qa, qb, qc = float(y @ y), float(y @ wy), float(wy @ wy)
    S, eig = y.size, graph.eigenvalues
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

    grid = np.linspace(*_trimmed_interval(graph), _RHO_SCAN)
    i_best = int(np.argmax([profile(r) for r in grid]))
    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, _RHO_SCAN - 1)]
    profile(_golden_max(profile, a, b, GOLDEN_TOL))
    return best["rho"], best["val"]


def scalar_sar_fit_ml(y: np.ndarray, graph: NeighborGraph) -> SarFit:
    """The score root on one column in plain scalar arithmetic, kept as the oracle.

    Bracket the first maximum of a 201-point scan, then bisect on the sign
    of the analytic score; a maximum at an interval end whose score points
    outward is that end.  Sums run in sensor order.
    """
    y = np.asarray(y, dtype=float)
    S = graph.n_sensors
    if y.shape != (S,):
        raise ValueError(f"y must have shape ({S},) to match the graph")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    W, eig = graph.W, graph.eigenvalues
    wy = sum(W[:, i] * y[i] for i in range(S))
    qa, qb, qc = sum(y * y), sum(y * wy), sum(wy * wy)
    if qa == 0.0:
        raise ValueError("profile likelihood is not finite: y is identically zero")
    lo, hi = _trimmed_interval(graph)
    if not hi > lo:
        raise ValueError("admissible rho interval collapsed")

    rho_star = qb / qc if qc > 0.0 else 0.0
    rss_min = sum((y - rho_star * wy) ** 2)

    def rss(rho):
        return rss_min + qc * (rho - rho_star) ** 2

    def profile(rho):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = float(np.sum(np.log(np.abs(1.0 - rho * eig)))) - 0.5 * S * np.log(rss(rho))
        return val if math.isfinite(val) else -math.inf

    def rising(rho):
        dlogdet = np.sum((eig / (1.0 - rho * eig)).real)
        with np.errstate(divide="ignore", invalid="ignore"):
            return S * qc * (rho_star - rho) / rss(rho) - dlogdet > 0.0

    grid = np.linspace(lo, hi, _RHO_SCAN)
    vals = [profile(r) for r in grid]
    i_best = int(np.argmax(vals))
    if not np.isfinite(vals[i_best]):
        raise ValueError("profile likelihood is not finite on the admissible interval")
    a = grid[max(i_best - 1, 0)]
    b = grid[min(i_best + 1, _RHO_SCAN - 1)]
    if i_best == 0 and not rising(lo):
        b = lo
    if i_best == _RHO_SCAN - 1 and rising(hi):
        a = hi
    for _ in range(_RHO_STEPS):
        mid = 0.5 * (a + b)
        if rising(mid):
            a = mid
        else:
            b = mid
    rho_hat = 0.5 * (a + b)

    resid = y - rho_hat * wy
    sigma2 = sum(resid * resid) / S
    if sigma2 == 0.0:
        raise ValueError(UNDERFLOW)
    logdet = float(np.sum(np.log(np.abs(1.0 - rho_hat * eig))))
    loglik = logdet - 0.5 * S * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return SarFit(
        rho=float(rho_hat),
        sigma2=float(sigma2),
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


def small_rho_columns(graph, rng, T):
    """White-noise columns with y'W y = delta y'y for |delta| in [1e-14, 1e-5].

    Their score root lies near delta, where 60 halvings of a scan bracket
    stop short of the spacing of doubles.  Each column is u + t v for
    standard normal u, v, with t a root of the quadratic that condition
    makes in t.
    """
    M = 0.5 * (graph.W + graph.W.T)
    cols = []
    while len(cols) < T:
        u, v = rng.standard_normal((2, graph.n_sensors))
        delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -5.0)
        A = u @ M @ u - delta * (u @ u)
        B = u @ M @ v - delta * (u @ v)
        C = v @ M @ v - delta * (v @ v)
        if B * B > A * C and C != 0.0:
            cols.append(u + (-B + math.sqrt(B * B - A * C)) / C * v)
    return np.column_stack(cols)


def near_constant_columns(graph, rng, T):
    """Constant columns with relative noise of 1e-9 to 1e-3: their score
    roots lie close below the upper end of the admissible interval."""
    level = rng.uniform(-20.0, 20.0, T)
    noise = 10.0 ** rng.uniform(-9.0, -3.0, T) * rng.standard_normal((graph.n_sensors, T))
    return level * (1.0 + noise)


def detrended_diurnal_field(seed):
    """A simulated 4 x 4 field, T=360 at 30 s with a 600 W/m^2 diurnal
    trend, detrended: the inputs of ``fit --model sar --detrend``."""
    raw = simulate_field(
        FieldSimConfig(
            layout=grid_layout(4, 4, 90.0),
            n_times=360,
            dt_seconds=30.0,
            diurnal_amplitude=600.0,
            seed=seed,
        )
    )
    return detrend(raw)[0]


def separable_ts_stage1(out_dir):
    """Layout, graph and time-first stage-1 residual field of the separable
    pipeline on ``simulate --seed 3 --T 120``, with that pipeline's fit."""
    assert cli_main(["simulate", "--seed", "3", "--T", "120", "--verbosity", "0",
                     "--out", str(out_dir)]) == 0
    layout = read_layout_csv(out_dir / "layout.csv")
    field = ingest_field(
        read_measurements_csv(out_dir / "measurements.csv"), layout, kind="detrended"
    )
    g = build_neighbor_graph(layout, 2)
    fit = fit_separable(field, "time_then_space", g, FcarSpec.delay_absorbed(2, 1), FcarOptions())
    return layout, g, np.stack([f.residuals for f in fit.fcar_fits]), fit


def score_signs(y, graph, rho, n=8):
    """Whether the score is positive at the 2n+1 doubles centred on ``rho``.

    The column's sums run in sensor order, as the lockstep fit forms them,
    so these are the signs its root search sees.
    """
    S = graph.n_sensors
    wy = sum(graph.W[:, i] * y[i] for i in range(S))
    qc = sum(wy * wy)
    rho_star = sum(y * wy) / qc if qc > 0.0 else 0.0
    rss_min = sum((y - rho_star * wy) ** 2)
    xs = [rho]
    for _ in range(n):
        xs = [np.nextafter(xs[0], -np.inf), *xs, np.nextafter(xs[-1], np.inf)]
    xs = np.array(xs)
    score, _ = _score(xs, graph.eigenvalues, rho_star, qc, rss_min + qc * (xs - rho_star) ** 2, S)
    return score > 0.0


def assert_matches_bisection(values, graph):
    """Each column's rho against the bisection oracle ``scalar_sar_fit_ml``.

    Where 60 halvings of the widest scan bracket end below the spacing of
    doubles at the oracle's rho, bisection ends at adjacent doubles; there
    rho is bit-equal to it whenever the score's sign flips at most once
    within 8 doubles of it.  Everywhere else rho lies within the oracle's
    final bracket widened by 8 ulps.  Returns how many columns were held
    to bit-equality.
    """
    rho = sar_residuals_field(make_field(graph.layout, values), graph).trace.rho
    lo, hi = _trimmed_interval(graph)
    halved = 2.0 * (hi - lo) / (_RHO_SCAN - 1) * 2.0**-_RHO_STEPS
    exact = 0
    for j in range(values.shape[1]):
        y = values[:, j]
        oracle = scalar_sar_fit_ml(y, graph).rho
        ulp = np.spacing(abs(oracle))
        adjacent = halved < ulp
        up = score_signs(y, graph, oracle)
        if adjacent and np.count_nonzero(up[1:] != up[:-1]) <= 1:
            assert rho[j] == oracle, j
            exact += 1
        else:
            assert abs(rho[j] - oracle) <= (ulp if adjacent else 0.5 * halved) + 8 * ulp, j
    return exact


def assert_rel_close(got, expect, rel=1e-12):
    """Agreement within ``rel`` of the largest magnitude in ``expect``."""
    got, expect = np.asarray(got), np.asarray(expect)
    assert np.max(np.abs(got - expect)) <= rel * np.max(np.abs(expect))


def assert_matches_scalar_oracle(values, graph):
    """The field fit agrees with the scalar oracle and the one-column fit to 1e-12,
    and with the golden-section reference to its 1e-6 tolerance."""
    field = make_field(graph.layout, values)
    res = sar_residuals_field(field, graph)
    T = field.n_times
    for j in range(T):
        y = field.values[:, j]
        oracle = scalar_sar_fit_ml(y, graph)
        rho = res.trace.rho[j]
        assert abs(rho - oracle.rho) <= 1e-12
        assert_rel_close(res.trace.sigma2[j], oracle.sigma2)
        assert_rel_close(res.trace.loglik[j], oracle.loglik)
        assert_rel_close(res.field.values[:, j], oracle.residuals)
        fit = sar_fit_ml(y, graph)
        assert fit.rho_interval == oracle.rho_interval
        assert abs(fit.rho - rho) <= 1e-12
        assert_rel_close(fit.sigma2, res.trace.sigma2[j])
        assert_rel_close(fit.loglik, res.trace.loglik[j])
        assert_rel_close(fit.residuals, res.field.values[:, j])
        golden_rho, _ = golden_sar_rho(y, graph)
        assert abs(rho - golden_rho) <= GOLDEN_TOL
        assert profile_loglik_oracle(rho, y, graph.W) >= profile_loglik_oracle(
            golden_rho, y, graph.W
        ) - 1e-12
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

    def test_defective_eigenvalue_bounds_the_interval(self):
        """On this layout W has a double eigenvalue -1/2 in one Jordan block,
        which eigvals returns as the pair -1/2 +- 5.7e-9i: it still bounds
        the interval at rho = -2, and fits near its eigenvector stay above
        that singular point instead of reaching -2.93."""
        xy = [[-32.6, 3.5], [83.8, -14.2], [187.9, 25.1], [-0.3, 58.1], [101.1, 77.6],
              [206.9, 80.9], [19.0, 148.6], [136.2, 158.3], [164.5, 189.5]]
        lay = SensorLayout(tuple(f"s{i:02d}" for i in range(9)), np.array(xy))
        g = build_neighbor_graph(lay, 2)
        lo, hi = g.rho_interval
        assert lo == pytest.approx(-2.0, rel=1e-12)
        assert hi == pytest.approx(1.0, rel=1e-12)
        lam, vec = np.linalg.eig(g.W)
        v = vec[:, np.argmin(np.abs(lam + 0.5))].real
        rng = np.random.default_rng(0)
        vals = v[:, None] / np.linalg.norm(v) + 1e-3 * rng.standard_normal((9, 6))
        rho = sar_residuals_field(make_field(lay, vals), g).trace.rho
        assert np.all(rho > -2.0)

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
    """The field fit, all columns together, reproduces the scalar score-root fit."""

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
        """2*pi*sigma2 within 1% of 1, where the log-likelihood's log is near 0."""
        g = build_neighbor_graph(grid_layout(3, 3, 1.0), 2)
        vals = np.random.default_rng(21).standard_normal((9, 150))
        sigma2 = sar_residuals_field(make_field(g.layout, vals), g).trace.sigma2
        target = (1.0 + np.linspace(-0.01, 0.01, 150)) / (2.0 * np.pi)
        res = assert_matches_scalar_oracle(vals * np.sqrt(target / sigma2), g)
        npt.assert_allclose(2.0 * np.pi * res.trace.sigma2, 1.0, atol=0.011)

    def test_flat_profile_keeps_the_first_point(self):
        """With W = 0 the profile is flat, the score is 0 and the lower end is returned."""
        flat = zero_weight_graph(grid_layout(3, 3, 1.0))
        vals = np.random.default_rng(6).standard_normal((9, 4))
        res = assert_matches_scalar_oracle(vals, flat)
        lo, _ = sar_fit_ml(vals[:, 0], flat).rho_interval
        assert np.all(res.trace.rho == lo)

    def test_score_is_the_profile_derivative(self):
        """The analytic score against central differences of the slogdet
        profile, and its slope against central differences of the score."""
        for side, k in [(3, 1), (4, 2), (5, 3)]:
            g = build_neighbor_graph(grid_layout(side, side, 1.0), k)
            S = g.n_sensors
            lo, hi = g.rho_interval
            rng = np.random.default_rng(side + k)
            y = rng.standard_normal(S)
            wy = g.W @ y
            rho_star, qc = float(y @ wy) / float(wy @ wy), float(wy @ wy)
            rho = lo + (hi - lo) * np.array([0.05, 0.3, 0.5, 0.7, 0.95])
            rss = [float((y - r * wy) @ (y - r * wy)) for r in rho]
            h = 1e-6 * (hi - lo)
            numeric = [
                (profile_loglik_oracle(r + h, y, g.W) - profile_loglik_oracle(r - h, y, g.W))
                / (2.0 * h)
                for r in rho
            ]
            score, slope = _score(rho, g.eigenvalues, rho_star, qc, np.array(rss), S)
            npt.assert_allclose(score, numeric, rtol=1e-6, atol=1e-6)

            def score_at(r):
                rss_r = ((y[:, None] - r * wy[:, None]) ** 2).sum(axis=0)
                return _score(r, g.eigenvalues, rho_star, qc, rss_r, S)[0]

            numeric = (score_at(rho + h) - score_at(rho - h)) / (2.0 * h)
            npt.assert_allclose(slope, numeric, rtol=1e-6, atol=1e-6)

    def test_single_column(self):
        g = build_neighbor_graph(grid_layout(3, 3, 1.0), 2)
        vals = np.random.default_rng(12).standard_normal((9, 1))
        res = assert_matches_scalar_oracle(vals, g)
        assert res.trace.rho.shape == (1,)

    @pytest.mark.parametrize("seed, k", [(0, 2), (5, 3)])
    def test_detrended_diurnal_field(self, seed, k):
        field = detrended_diurnal_field(seed)
        g = build_neighbor_graph(field.layout, k)
        assert_matches_scalar_oracle(field.values, g)


class TestNewtonMatchesBisectionOracle:
    """The bracketed Newton search ends where the bisection it replaced ends."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_mixed_columns(self, k):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), k)
        vals = mixed_columns(g, np.random.default_rng(40 + k), T=60)
        assert assert_matches_bisection(vals, g) == 60

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_white_noise_with_rho_below_1e_4(self, k):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), k)
        vals = small_rho_columns(g, np.random.default_rng(k), 80)
        rho = sar_residuals_field(make_field(g.layout, vals), g).trace.rho
        assert np.all(np.abs(rho) < 1e-4)
        assert_matches_bisection(vals, g)

    def test_near_constant_columns(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        vals = near_constant_columns(g, np.random.default_rng(8), 60)
        assert assert_matches_bisection(vals, g) == 60

    @pytest.mark.parametrize("which", ["lo", "hi"])
    def test_edge_columns(self, which):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        rng = np.random.default_rng(9)
        vals = np.column_stack([edge_column(g, which, rng) for _ in range(8)])
        assert assert_matches_bisection(vals, g) == 8

    def test_zero_weight_graph(self):
        flat = zero_weight_graph(grid_layout(3, 3, 1.0))
        assert assert_matches_bisection(np.random.default_rng(10).standard_normal((9, 8)), flat) == 8

    def test_separable_ts_first_stage(self, tmp_path):
        # one of its 118 columns has a sign test that flips three times
        # within 2 ulps of the root: bisection and Newton end at different flips
        _, g, stage1, _ = separable_ts_stage1(tmp_path)
        assert assert_matches_bisection(stage1, g) >= 117


class TestSarEdgeMaximum:
    def test_constant_columns_return_the_upper_end(self):
        """Under row-standardized W the profile of a constant column rises to 1/lambda_max."""
        for side, k in [(3, 1), (4, 2), (4, 3), (5, 4)]:
            g = build_neighbor_graph(grid_layout(side, side, 1.0), k)
            vals = np.outer(np.ones(side * side), [1.0, -3.7, 12.3, 1e-3, 123456.7])
            res = assert_matches_scalar_oracle(vals, g)
            _, hi = sar_fit_ml(vals[:, 0], g).rho_interval
            assert np.all(res.trace.rho == hi)

    def test_maximum_beyond_either_end(self):
        """A nilpotent W has only zero eigenvalues, so rho is admissible on
        (-10, 10) and the RSS minimum qb/qc may lie outside it."""
        lay = grid_layout(3, 3, 1.0)
        W = np.eye(9, k=1)
        g = NeighborGraph(lay, 1, build_neighbor_graph(lay, 1).neighbors, W, np.zeros(9))
        lo, hi = _trimmed_interval(g)
        y = np.zeros((9, 3))
        y[:2, 0] = [1.0, 0.05]  # RSS minimum at rho = 20
        y[:2, 1] = [1.0, -0.05]  # at rho = -20
        y[:, 2] = np.random.default_rng(3).standard_normal(9)
        res = assert_matches_scalar_oracle(y, g)
        assert res.trace.rho[0] == hi
        assert res.trace.rho[1] == lo
        assert lo < res.trace.rho[2] < hi
        wy = W @ y[:, 2]
        assert res.trace.rho[2] == pytest.approx(float(y[:, 2] @ wy) / float(wy @ wy), abs=1e-12)


class TestSarPerturbation:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        coupling=st.floats(-0.6, 0.8),
        k=st.sampled_from([1, 2, 3]),
    )
    def test_relative_perturbation_moves_rho_by_rounding(self, seed, coupling, k):
        """A 1e-15 relative change of an interior-maximum column moves rho by <= 1e-12."""
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), k)
        rng = np.random.default_rng(seed)
        y = np.linalg.solve(np.eye(16) - coupling * g.W, rng.standard_normal(16))
        base = sar_fit_ml(y, g)
        lo, hi = base.rho_interval
        assume(lo + 0.01 * (hi - lo) < base.rho < hi - 0.01 * (hi - lo))
        moved = sar_fit_ml(y * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, 16)), g)
        assert abs(moved.rho - base.rho) <= 1e-12

    def test_separable_ts_first_stage_under_ulp_changes(self, tmp_path):
        """The time-first separable pipeline's SAR stage on ``simulate --seed 3
        --T 120``: changes of up to 8 ulps per value move no rho beyond 1e-12."""
        layout, g, stage1, fit = separable_ts_stage1(tmp_path)
        base = sar_residuals_field(make_field(layout, stage1), g)
        npt.assert_array_equal(base.trace.rho, fit.sar_trace.rho)
        rng = np.random.default_rng(0)
        for _ in range(8):
            ulps = rng.integers(-8, 9, stage1.shape)
            moved = stage1 + ulps * np.spacing(stage1)
            res = sar_residuals_field(make_field(layout, moved), g)
            assert np.max(np.abs(res.trace.rho - base.trace.rho)) <= 1e-12


class TestSarSensorPermutation:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("perm_seed", [0, 1, 2])
    def test_reordering_sensors_reorders_the_fit(self, k, perm_seed):
        """Layout and graph built from the permuted sensors give the same rho
        and the permuted residuals, to rounding."""
        field = detrended_diurnal_field(perm_seed)
        perm = np.random.default_rng(perm_seed).permutation(16)
        lay = field.layout
        moved_lay = SensorLayout(tuple(lay.ids[i] for i in perm), lay.xy[perm])
        base = sar_residuals_field(field, build_neighbor_graph(lay, k))
        moved = sar_residuals_field(
            make_field(moved_lay, field.values[perm]), build_neighbor_graph(moved_lay, k)
        )
        assert np.max(np.abs(moved.trace.rho - base.trace.rho)) <= 1e-12
        expect = base.field.values[perm]
        assert np.max(np.abs(moved.field.values - expect)) <= 1e-12 * np.max(np.abs(expect))


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


class TestSarValueScaling:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_power_of_two_scaling(self, seed):
        """Scaling a detrended field by 2**k scales every sum the fit forms by
        an exact power of two, so rho keeps its bits and residuals scale exactly."""
        field = detrended_diurnal_field(seed)
        g = build_neighbor_graph(field.layout, 2)
        base = sar_residuals_field(field, g)
        for k in (-30, -3, 5, 40):
            scaled = sar_residuals_field(make_field(field.layout, field.values * 2.0**k), g)
            assert np.array_equal(scaled.trace.rho, base.trace.rho)
            assert np.array_equal(scaled.field.values, base.field.values * 2.0**k)


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
        assert time.monotonic() - t0 < 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_score_evaluations_per_pass(self, seed, tmp_path, monkeypatch):
        """``simulate --T 360 --diurnal 600`` detrended: the end-point rules
        and the root search evaluate the score at most 14 times in all, where
        60 bisection halvings took 62."""
        assert cli_main(["simulate", "--T", "360", "--diurnal", "600", "--seed", str(seed),
                         "--verbosity", "0", "--out", str(tmp_path)]) == 0
        layout = read_layout_csv(tmp_path / "layout.csv")
        field, _ = detrend(ingest_field(read_measurements_csv(tmp_path / "measurements.csv"), layout))
        calls = []

        def counting(rho, *args):
            calls.append(rho.size)
            return _score(rho, *args)

        monkeypatch.setattr(spatial, "_score", counting)
        sar_residuals_field(field, build_neighbor_graph(layout, 2))
        assert calls[0] == field.n_times
        assert len(calls) <= 14

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
        """Values near 1e-162 make the residual variance underflow to 0."""
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        vals = np.random.default_rng(0).standard_normal((16, 4))
        vals[:, 2] *= 1e-162
        with pytest.raises(ValueError, match=f"^{UNDERFLOW}$"):
            scalar_sar_fit_ml(vals[:, 2], g)
        with pytest.raises(
            ValueError,
            match=rf"^SAR fit failed at time index 2 \(t=1120\): {UNDERFLOW}$",
        ):
            sar_residuals_field(make_field(lay, vals), g)
        vals[:, 1] = 0.0
        with pytest.raises(ValueError, match="time index 1 .*identically zero$"):
            sar_residuals_field(make_field(lay, vals), g)

    def test_tiny_columns_fail_like_the_scalar_fit(self):
        """Across the scales where the residual variance underflows."""
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
        assert {"fitted", UNDERFLOW} <= outcomes

    @pytest.mark.parametrize(
        "bad, first, message",
        [
            ({2: np.nan, 4: 0.0}, 2, "y must be finite"),
            ({1: 0.0, 3: np.inf}, 1, "profile likelihood is not finite: y is identically zero"),
            ({3: 1e160, 5: 0.0}, 3, "y is too large to fit: its sum of squares overflows"),
        ],
    )
    def test_first_failing_column_of_a_matrix(self, bad, first, message):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        vals = np.random.default_rng(2).standard_normal((16, 6))
        for j, v in bad.items():
            vals[:, j] = v
        with warnings.catch_warnings(), pytest.raises(_ColumnError) as info:
            warnings.simplefilter("error")
            _sar_fit_columns(vals, g)
        assert info.value.column == first
        assert str(info.value) == message

    def test_overflowing_column_fails_without_warning(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        y = np.random.default_rng(0).standard_normal(16)
        base = sar_fit_ml(y, g).rho
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^y is too large to fit: its sum of squares overflows$"):
                sar_fit_ml(1e160 * y, g)
            # large columns whose sums stay finite still fit
            assert sar_fit_ml(1e150 * y, g).rho == pytest.approx(base, rel=1e-12)

    def test_layout_mismatch_raises(self):
        g = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
        other = grid_layout(3, 3, 1.0)
        field = make_field(other, np.random.default_rng(0).standard_normal((9, 4)))
        with pytest.raises(ValueError, match="layout"):
            sar_residuals_field(field, g)

    def test_same_ids_at_other_coordinates_raise(self):
        # a graph on the same ids but reversed coordinates has another W
        lay = grid_layout(4, 4, 1.0)
        g = build_neighbor_graph(lay, 2)
        flipped = SensorLayout(lay.ids, lay.xy[::-1])
        field = make_field(flipped, np.random.default_rng(0).standard_normal((16, 4)))
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
        # one line naming the sensor count, none of Qhull's report
        one_line = "^degenerate layout geometry: the convex hull of 3 sensors has no interior$"
        with pytest.raises(ValueError, match=one_line):
            voronoi_weights(lay, (0.5, 0.0))


# ------------------------------------------------ two-diagram oracle
# Sibson weights as ``voronoi_weights`` took them before it clipped the
# query's own cell: four far corners bound every sensor's cell, each
# sensor's stolen area is its cell area before the query is inserted less
# its area after, and each cell area is one shoelace over its region.
# Kept as the reference.


def oracle_cell_areas(points, n_real):
    from scipy.spatial import Voronoi

    vor = Voronoi(points)
    areas = np.full(n_real, np.nan)
    for i in range(n_real):
        region = vor.regions[vor.point_region[i]]
        if -1 in region or not region:
            continue
        x, y = vor.vertices[region][:, 0], vor.vertices[region][:, 1]
        areas[i] = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    return areas


def far_corners(xy):
    """The four bounding points the two-diagram construction appends."""
    span = max(float(np.ptp(xy[:, 0])), float(np.ptp(xy[:, 1])), 1.0)
    signs = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    return xy.mean(axis=0) + 100.0 * span * signs


def oracle_weights(xy, q):
    """(sensor index, weight) pairs of an interior query from two diagrams,
    or None where the query's cell borders a far corner's cell: the corner
    steals area there that the sensors' weights leave out."""
    from scipy.spatial import Voronoi

    base = np.vstack([xy, far_corners(xy)])
    points = np.vstack([base, q])
    nq = len(points) - 1
    pairs = Voronoi(points).ridge_points
    touching = pairs[np.any(pairs == nq, axis=1)].ravel()
    if np.any((touching >= len(xy)) & (touching < nq)):
        return None
    before, after = oracle_cell_areas(base, len(xy)), oracle_cell_areas(points, len(xy))
    stolen = np.where(np.isfinite(before) & np.isfinite(after), before - after, 0.0)
    stolen = np.maximum(stolen, 0.0)
    w = stolen / stolen.sum()
    return tuple((int(i), float(w[i])) for i in np.nonzero(w > 1e-12)[0])


class TestTwoDiagramOracle:
    @staticmethod
    def layouts():
        grid = grid_layout(4, 4, 90.0).xy
        rng = np.random.default_rng(31)
        yield "grid", grid
        yield "jittered", grid + rng.uniform(-20.0, 20.0, grid.shape)
        for n in (4, 7, 12, 20):
            yield f"random{n}", rng.uniform(0.0, 300.0, (n, 2))
        yield "translated", grid + (12345.678, 0.1)

    def test_matches_oracle_away_from_corners(self):
        rng = np.random.default_rng(32)
        compared = 0
        for name, xy in self.layouts():
            lay = SensorLayout(ids_for(xy), xy)
            lo, hi = xy.min(axis=0), xy.max(axis=0)
            for _ in range(40):
                q = rng.uniform(lo, hi)
                w = voronoi_weights(lay, tuple(q))
                want = None if w.hull_fallback else oracle_weights(xy, q)
                if want is None:
                    continue
                ref = spatial.VoronoiWeights(want).as_vector(len(xy))
                npt.assert_allclose(w.as_vector(len(xy)), ref, rtol=0, atol=1e-9, err_msg=name)
                compared += 1
        assert compared >= 150

    def test_grid_leave_one_out_is_bit_equal(self):
        # the interpolation baseline's held-out queries in crossval on the
        # 90 m grid: the interior sensors, each against the other 15
        lay = grid_layout(4, 4, 90.0)
        inside = [i for i, (x, y) in enumerate(lay.xy) if 0.0 < x < 270.0 and 0.0 < y < 270.0]
        assert len(inside) == 4
        for held in inside:
            train = lay.subset([s for s in lay.ids if s != lay.ids[held]])
            w = voronoi_weights(train, tuple(lay.xy[held]))
            assert not w.hull_fallback
            # a quarter to each of the four nearest, bit for bit as the
            # two-diagram construction (its one-pass shoelace) gave them,
            # so crossval's answers stay; the per-region oracle's rounding
            # moves them by 1.4e-14
            d = np.hypot(*(train.xy - lay.xy[held]).T)
            assert w.pairs == tuple((int(i), 0.25) for i in np.flatnonzero(d == 90.0))
            ref = spatial.VoronoiWeights(oracle_weights(train.xy, lay.xy[held]))
            npt.assert_allclose(w.as_vector(15), ref.as_vector(15), rtol=0, atol=1e-13)


@st.composite
def layout_and_inside_query(draw, kinds=("mixture", "near hull", "near sensor")):
    """A layout with no two sensors within 1e-3 of its span and spread in
    every direction, and a query strictly inside its hull of one of
    ``kinds``: a mixture of the sensors, a point near a hull edge, or a
    point near a sensor."""
    from scipy.spatial import ConvexHull

    n = draw(st.integers(4, 20))
    coord = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    xy = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    span = max(float(np.ptp(xy[:, 0])), float(np.ptp(xy[:, 1])), 1.0)
    gaps = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
    assume(gaps[np.triu_indices(n, 1)].min() > 1e-3 * span)
    # spread in every direction: neither collinear nor nearly so
    assume(np.linalg.svd(xy - xy.mean(axis=0), compute_uv=False)[-1] > 1e-2 * span)
    mix = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    q = (mix / mix.sum()) @ xy
    kind = draw(st.sampled_from(kinds))
    if kind == "near hull":
        # (1 - eps) (a point on a hull edge) + eps (the centroid)
        hull = ConvexHull(xy)
        i, j = hull.simplices[draw(st.integers(0, len(hull.simplices) - 1))]
        on_edge = xy[i] + draw(st.floats(0.0, 1.0)) * (xy[j] - xy[i])
        eps = 10.0 ** draw(st.floats(-6.0, -1.0))
        q = (1.0 - eps) * on_edge + eps * xy.mean(axis=0)
    elif kind == "near sensor":
        # 2e-9 to 1e-6 of the span from a sensor, toward the mixture point
        k = draw(st.integers(0, n - 1))
        toward = (q - xy[k]) / np.hypot(*(q - xy[k]))
        q = xy[k] + span * 10.0 ** draw(st.floats(math.log10(2e-9), -6.0)) * toward
        # near a sensor on the hull, some of these points are outside it:
        # keep those 1e-8 of the span inside, clear of the 1e-9 margin of
        # voronoi_weights's own hull test
        hull = ConvexHull(xy)
        assume(np.all(hull.equations[:, :2] @ q + hull.equations[:, 2] < -1e-8 * span))
    return xy, q


def ids_for(xy):
    return tuple(f"s{i:02d}" for i in range(len(xy)))


def cell_reach(xy, q):
    """Distance from the query to the farthest vertex of its Voronoi cell."""
    from scipy.spatial import Voronoi

    vor = Voronoi(np.vstack([xy - q, [0.0, 0.0]]))
    return float(np.max(np.hypot(*vor.vertices[vor.regions[vor.point_region[-1]]].T)))


def all_pairs_weights(xy, q):
    """Sibson pairs of an interior query with each sensor's piece of the
    query's cell cut against every other sensor, natural neighbor or not:
    n(n-1) cuts where ``voronoi_weights`` makes them among the natural
    neighbors only."""
    from scipy.spatial import Voronoi

    sites = (xy - q).tolist()
    vor = Voronoi(sites + [[0.0, 0.0]])
    r = 2.0 * float(np.abs(vor.vertices[vor.regions[vor.point_region[-1]]]).max())
    cell = [(-r, -r), (r, -r), (r, r), (-r, r)]
    for site in sites:
        cell = list(spatial._nearer(cell, [0.0, 0.0], site))
    stolen = np.zeros(len(sites))
    for i, p in enumerate(sites):
        piece = cell
        for other in sites:
            if other is not p and piece:
                piece = list(spatial._nearer(piece, p, other))
        edges = zip(piece, piece[1:] + piece[:1])
        stolen[i] = 0.5 * abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in edges))
    w = stolen / stolen.sum()
    return tuple((int(i), float(w[i])) for i in np.nonzero(w > 1e-12)[0])


class TestAllPairsOracle:
    # a sensor whose bisector with the query misses the query's cell has
    # no part of it nearer itself than the natural neighbors, so cutting
    # the pieces among those alone gives the all-pairs weights bit for bit
    @settings(max_examples=300, deadline=None)
    @given(layout_and_inside_query())
    def test_matches_all_pairs(self, case):
        xy, q = case
        w = voronoi_weights(SensorLayout(ids_for(xy), xy), tuple(q))
        assert w.pairs == all_pairs_weights(xy, q)

    def test_grid_leave_one_out(self):
        # the 16 held-out queries of crossval on the 90 m grid: the 12 on
        # the hull fall back, the 4 inside match the oracle bit for bit
        lay = grid_layout(4, 4, 90.0)
        fallbacks = 0
        for held, sid in enumerate(lay.ids):
            train = lay.subset([s for s in lay.ids if s != sid])
            w = voronoi_weights(train, tuple(lay.xy[held]))
            if w.hull_fallback:
                fallbacks += 1
            else:
                assert w.pairs == all_pairs_weights(train.xy, lay.xy[held])
        assert fallbacks == 12


class TestSibsonLinearPrecision:
    # Sibson weights reproduce any linear function, so they sum to 1 and
    # their weighted sensor coordinates are the query: also for queries
    # just inside the hull and queries a hair from a sensor.  A query
    # 1e-6 of the span inside a thin layout's hull has a cell reaching up
    # to ~3e7 spans out, and a double holds its far vertex only to eps
    # times that reach: the weights lose up to about 10 times that much
    # of the query's position (9.3 eps reach over 20,000 such draws).
    @settings(max_examples=300, deadline=None)
    @given(layout_and_inside_query())
    def test_weights_reproduce_the_query(self, case):
        xy, q = case
        span = max(float(np.ptp(xy[:, 0])), float(np.ptp(xy[:, 1])), 1.0)
        w = voronoi_weights(SensorLayout(ids_for(xy), xy), tuple(q))
        assert not w.hull_fallback
        v = w.as_vector(len(xy))
        assert abs(v.sum() - 1.0) <= 1e-9
        tol = 1e-9 * span + 32.0 * np.finfo(float).eps * cell_reach(xy, q)
        assert np.max(np.abs(v @ xy - q)) <= tol


class TestSibsonTranslation:
    # weights depend only on where the query sits among the sensors.  The
    # shift rounds every coordinate by up to 1e-12, a visible share of a
    # near-hull query's distance to the hull or a near-sensor query's to
    # its sensor, so only mixtures of the sensors are drawn
    @settings(max_examples=150, deadline=None)
    @given(layout_and_inside_query(kinds=("mixture",)))
    def test_shift_keeps_the_weights(self, case):
        xy, q = case
        shift = np.array([12345.678, 0.1])
        here = voronoi_weights(SensorLayout(ids_for(xy), xy), tuple(q))
        moved = voronoi_weights(SensorLayout(ids_for(xy), xy + shift), tuple(q + shift))
        npt.assert_allclose(moved.as_vector(len(xy)), here.as_vector(len(xy)), rtol=0, atol=1e-11)


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

    def test_gap_in_training_names_sensor_and_time(self):
        # the held-out sensor's own gap is not read; the earliest gap among
        # the training sensors is named
        lay = grid_layout(4, 4, 1.0)
        vals = np.random.default_rng(3).standard_normal((16, 6))
        mask = np.zeros(vals.shape, dtype=bool)
        mask[lay.index_of("s05"), 0] = True
        mask[lay.index_of("s10"), 4] = True
        mask[lay.index_of("s02"), 5] = True
        vals[mask] = np.nan
        field = SpatioTemporalField(lay, 1000.0 + 60.0 * np.arange(6), vals, mask=mask)
        train = lay.subset([s for s in lay.ids if s != "s05"])
        with pytest.raises(ValueError, match=r"sensor 's10' is missing at time index 4 "):
            natural_neighbor_predict(field, train, "s05")
        complete = lay.subset([s for s in lay.ids if s not in ("s05", "s10", "s02")])
        pred = natural_neighbor_predict(field.subset(complete.ids + ("s05",)), complete, "s05")
        assert np.all(np.isfinite(pred.values))
