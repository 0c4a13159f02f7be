"""Package acceptance suite.

Ten end-to-end checks, one test each, covering curve recovery, the
least-squares and metric oracles, spatial-coupling recovery, the
qualitative model orderings on synthetic fields, interpolation
exactness, the averaging-window trend, exact decomposition, and CLI
reproducibility.  Every test prints one summary line (run with ``-s``
or ``-rA`` to see them) and enforces its runtime budget.
"""

import hashlib
import math
import time

import numpy as np

from skylattice.cli import main as cli_main
from skylattice.core import SpatioTemporalField, grid_layout, time_average
from skylattice.evaluation import (
    CrossvalPlan,
    adjusted_r2,
    crossval,
    rmpe,
    rmpe_ratio,
    rmse,
)
from skylattice.fcar import (
    FcarOptions,
    FcarSpec,
    SplineBasis,
    basis_eval,
    fit_fcar,
    spline_preestimate,
)
from skylattice.fcsar import (
    FcsarSpec,
    fit_fcsar,
    fit_separable,
    separability_diagnostic,
)
from skylattice.simulation import (
    Expar2Config,
    FieldSimConfig,
    expar2_true_curves,
    simulate_expar2,
    simulate_field,
)
from skylattice.spatial import (
    build_neighbor_graph,
    natural_neighbor_predict,
    sar_fit_ml,
    sar_residuals_field,
    voronoi_weights,
)

AR1 = FcarSpec.delay_absorbed(1, 1)
LIGHT = FcarOptions(n_knots=8)
GRID90 = grid_layout(4, 4, 90.0)


def finish(label, t0, budget, detail):
    elapsed = time.time() - t0
    print(f"[{label}] PASS in {elapsed:.1f}s (budget {budget:.0f}s): {detail}")
    assert elapsed < budget


def advective(seed, *, regime="partly_cloudy", corr_length=120.0, n_times=144):
    return simulate_field(
        FieldSimConfig(
            layout=GRID90,
            n_times=n_times,
            regime=regime,
            mode="advective",
            corr_length=corr_length,
            seed=seed,
        )
    )


def test_01_nonlinear_curve_band_coverage():
    """95% bands cover both true coefficient curves on >= 85% of the
    reliable grid, median over 20 simulated series."""
    t0 = time.time()
    coverages = []
    for seed in range(20):
        cfg = Expar2Config(n_times=500, seed=seed)
        x = simulate_expar2(cfg)
        truths = expar2_true_curves(cfg)
        fit = fit_fcar(x, FcarSpec.delay_absorbed(2, 1))
        inside = total = 0
        for curve, truth in zip(fit.curves, truths):
            tv = truth(curve.u)
            ok = (curve.lower <= tv) & (tv <= curve.upper)
            inside += int(np.sum(ok & curve.reliable))
            total += int(np.sum(curve.reliable))
        coverages.append(inside / total)
    median = float(np.median(coverages))
    assert median >= 0.85
    finish("01 band coverage", t0, 30, f"median {median:.3f} over 20 seeds")


def test_02_spline_least_squares_oracle():
    """Pre-estimate equals the explicit normal-equations solution to 1e-8
    on 20 random small instances."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        T = int(rng.integers(35, 61))
        x = rng.uniform(-2.0, 2.0, size=T)
        p = int(rng.integers(1, 3))
        spec = (
            FcarSpec.delay_absorbed(p, 1)
            if rng.random() < 0.5
            else FcarSpec(p=p, d=1)
        )
        basis = SplineBasis(int(rng.integers(2, 5)))
        coeffs = spline_preestimate(x, spec, basis)
        t = np.arange(spec.max_lag, T)
        u = x[t - spec.d]
        unit = (u - u.min()) / (u.max() - u.min())
        B = basis_eval(basis, unit)
        for ci, j in enumerate(spec.components):
            regressor = np.ones_like(u) if j == 0 else x[t - j]
            D = B * regressor[:, None]
            lam = np.linalg.solve(D.T @ D, D.T @ x[t])
            worst = max(worst, float(np.max(np.abs(lam - coeffs[:, ci]))))
    assert worst < 1e-8
    finish("02 least-squares oracle", t0, 5, f"worst |diff| {worst:.2e}")


def test_03_spatial_coupling_recovery():
    """Mean estimated coupling within 0.1 of truth 0.5 over 200 draws, and
    the line-search optimum matches a 1000-point grid on 10 instances."""
    t0 = time.time()
    graph = build_neighbor_graph(grid_layout(4, 4, 1.0), 2)
    transform = np.linalg.solve(np.eye(16) - 0.5 * graph.W, np.eye(16))
    rng = np.random.default_rng(0)
    rhos = [
        sar_fit_ml(transform @ rng.standard_normal(16), graph).rho
        for _ in range(200)
    ]
    mean_rho = float(np.mean(rhos))
    assert abs(mean_rho - 0.5) < 0.1

    def profile(rho, y, W):
        S = y.size
        A = np.eye(S) - rho * W
        _, logdet = np.linalg.slogdet(A)
        r = A @ y
        return logdet - 0.5 * S * np.log(float(r @ r) / S)

    for i in range(10):
        y = rng.standard_normal(16)
        fit = sar_fit_ml(y, graph)
        lo, hi = fit.rho_interval
        grid = np.linspace(lo, hi, 1000)
        values = [profile(r, y, graph.W) for r in grid]
        best = int(np.argmax(values))
        assert abs(fit.rho - grid[best]) <= grid[1] - grid[0]
        assert profile(fit.rho, y, graph.W) >= values[best] - 1e-12
    finish("03 coupling recovery", t0, 30, f"mean rho {mean_rho:.3f}")


def test_04_model_ordering_on_coupled_fields():
    """On 10 coupled synthetic fields the deeper-lag model beats the
    shallower one and space-first beats time-first, each in >= 9/10."""
    t0 = time.time()
    graph = build_neighbor_graph(GRID90, 2)
    n_depth = n_order = 0
    for seed in range(10):
        report = separability_diagnostic(advective(seed), graph, AR1)
        n_depth += report.fcsar_b2_rmse < report.fcsar_b1_rmse
        n_order += report.st_rmse < report.ts_rmse
    assert n_depth >= 9
    assert n_order >= 9
    finish(
        "04 model ordering", t0, 300, f"b2<b1 {n_depth}/10, st<ts {n_order}/10"
    )


def test_05_fit_order_agrees_on_factorizable_fields():
    """On 10 separable synthetic fields the two fit orders give RMSEs
    within 10% of each other in >= 8/10."""
    t0 = time.time()
    graph = build_neighbor_graph(GRID90, 2)
    n_close = 0
    for seed in range(10):
        field = simulate_field(
            FieldSimConfig(
                layout=GRID90,
                n_times=144,
                regime="partly_cloudy",
                mode="separable",
                corr_length=60.0,
                seed=seed,
            )
        )
        st = fit_separable(field, "space_then_time", graph, AR1).rmse()
        ts = fit_separable(field, "time_then_space", graph, AR1).rmse()
        n_close += abs(st - ts) / min(st, ts) < 0.10
    assert n_close >= 8
    finish("05 fit-order agreement", t0, 300, f"within 10% on {n_close}/10")


def test_06_heldout_prediction_beats_interpolation():
    """Leave-one-sensor-out: the lattice model's mean RMPE beats natural
    neighbors on >= 8/10 cloudy fields; clear fields are reported only."""
    t0 = time.time()
    graph = build_neighbor_graph(GRID90, 2)
    spec = FcsarSpec.uniform(graph, 1, AR1)
    plan = CrossvalPlan.all_subsets(16, 1)

    def ratio_for(field):
        model = crossval(field, plan, "fcsar", spec, LIGHT, eval_start=1)
        base = crossval(field, plan, "natural_neighbor", eval_start=1)
        return rmpe_ratio(model, base)

    cloudy = [ratio_for(advective(s, corr_length=60.0)) for s in range(10)]
    clear = [
        ratio_for(advective(s, regime="clear", corr_length=60.0))
        for s in range(3)
    ]
    n_better = sum(r < 1.0 for r in cloudy)
    assert n_better >= 8
    assert all(np.isfinite(r) for r in clear)
    finish(
        "06 held-out prediction",
        t0,
        60,
        f"cloudy ratio<1 on {n_better}/10 (median {np.median(cloudy):.3f}), "
        f"clear ratios {[round(r, 3) for r in clear]}",
    )


def test_07_interpolation_exactness_and_weights():
    """Linear-in-(x,y) fields are reproduced at interior sensors to 1e-6;
    interpolation weights sum to 1 within 1e-9 on 1000 queries."""
    t0 = time.time()
    layout = grid_layout(4, 4, 30.0)
    coeffs = np.random.default_rng(1).normal(size=(3, 12))
    values = (
        coeffs[0][None, :]
        + coeffs[1][None, :] * layout.xy[:, 0][:, None] / 30.0
        + coeffs[2][None, :] * layout.xy[:, 1][:, None] / 30.0
    )
    field = SpatioTemporalField(
        layout=layout,
        timestamps=np.arange(12) * 60.0,
        values=values,
        kind="detrended",
    )
    worst = 0.0
    for idx in (5, 6, 9, 10):
        sid = layout.ids[idx]
        train = layout.subset([s for s in layout.ids if s != sid])
        pred = natural_neighbor_predict(field, train, sid).values
        worst = max(worst, float(np.max(np.abs(pred - values[idx]))))
    assert worst < 1e-6

    rng = np.random.default_rng(2)
    scatter = grid_layout(4, 4, 30.0)
    worst_sum = 0.0
    for _ in range(1000):
        q = (float(rng.uniform(0, 90)), float(rng.uniform(0, 90)))
        w = voronoi_weights(scatter, q).as_vector(scatter.n_sensors)
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
    assert worst_sum < 1e-9
    finish(
        "07 interpolation exactness",
        t0,
        10,
        f"max error {worst:.2e}, worst weight-sum gap {worst_sum:.2e}",
    )


def test_08_metric_oracles():
    """rmse/rmpe/adjusted_r2 match naive-loop references to 1e-12 on 50
    random instances; a perfect fit scores exactly 1."""
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        S = int(rng.integers(3, 9))
        T = int(rng.integers(4, 13))
        obs = rng.normal(size=(S, T))
        fit = obs + 0.2 * rng.normal(size=(S, T))
        start = int(rng.integers(0, T - 1))

        total = sum(
            (obs[s, t] - fit[s, t]) ** 2
            for s in range(S)
            for t in range(start, T)
        )
        ref = math.sqrt(total / (S * (T - start)))
        worst = max(worst, abs(rmse(obs, fit, start) - ref))

        k = int(rng.integers(1, S))
        omega = tuple(rng.choice(S, size=k, replace=False).tolist())
        total = sum(
            (fit[s, t] - obs[s, t]) ** 2 for s in omega for t in range(T)
        )
        worst = max(worst, abs(rmpe(obs, fit, omega) - total / (T * k)))

        nu = float(rng.uniform(0, 5))
        n = obs.size
        ss_fit = sum(
            (fit[s, t] - obs[s, t]) ** 2 for s in range(S) for t in range(T)
        )
        zbar = obs.sum() / n
        ss_total = sum(
            (obs[s, t] - zbar) ** 2 for s in range(S) for t in range(T)
        )
        ref = 1.0 - (ss_fit / (n - nu)) / (ss_total / n)
        worst = max(worst, abs(adjusted_r2(obs, fit, nu) - ref))
    assert worst < 1e-12
    z = rng.normal(size=(5, 9))
    assert adjusted_r2(z, z.copy(), 7.0) == 1.0
    finish("08 metric oracles", t0, 5, f"worst |diff| {worst:.2e}")


def test_09_rmse_grows_as_window_shrinks():
    """Across averaging windows 600/300/60/30 s on 5 slowly evolving
    overcast fields, RMSE is monotone nondecreasing in >= 4/5."""
    t0 = time.time()
    n_monotone = 0
    sequences = []
    for seed in range(5):
        field = simulate_field(
            FieldSimConfig(
                layout=GRID90,
                n_times=2880,
                regime="overcast",
                mode="separable",
                corr_length=120.0,
                ar_coeff=0.9999,
                seed=seed,
            )
        )
        series = []
        for window in (600.0, 300.0, 60.0, 30.0):
            averaged = time_average(field, window)
            graph = build_neighbor_graph(averaged.layout, 2)
            fit = fit_fcsar(averaged, FcsarSpec.uniform(graph, 2, AR1), LIGHT)
            series.append(fit.rmse())
        sequences.append(series)
        n_monotone += all(a <= b + 1e-9 for a, b in zip(series, series[1:]))
    assert n_monotone >= 4
    finish(
        "09 window trend",
        t0,
        600,
        f"monotone on {n_monotone}/5, e.g. "
        + " -> ".join(f"{v:.2f}" for v in sequences[0]),
    )


def test_10_exact_decomposition_and_cli_reproducibility(tmp_path):
    """fitted + residual rebuilds the input exactly for every model, and
    CLI runs are byte-identical when repeated."""
    t0 = time.time()
    field = advective(0, n_times=80)
    graph = build_neighbor_graph(field.layout, 2)

    def gap(fitted, residuals, support):
        stack = (fitted + residuals - field.values)[:, support:]
        return float(np.max(np.abs(stack)))

    worst = 0.0
    for b in (1, 2):
        fit = fit_fcsar(field, FcsarSpec.uniform(graph, b, AR1), LIGHT)
        worst = max(worst, gap(fit.fitted_values, fit.residuals, fit.support_start))
    frozen = fit_fcsar(
        field, FcsarSpec.uniform(graph, 1, AR1), LIGHT, freeze_beta_at_zero=True
    )
    worst = max(
        worst, gap(frozen.fitted_values, frozen.residuals, frozen.support_start)
    )
    for order in ("space_then_time", "time_then_space"):
        sep = fit_separable(field, order, graph, AR1, LIGHT)
        worst = max(worst, gap(sep.fitted_values, sep.residuals, sep.support_start))
    sar = sar_residuals_field(field, graph)
    sar_fitted = field.values - sar.field.values
    worst = max(worst, gap(sar_fitted, sar.field.values, 0))
    assert worst < 1e-12

    def hashes(directory):
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
        }

    sim = tmp_path / "sim"
    sim_args = ["simulate", "--out", str(sim), "--T", "40", "--seed", "5"]
    assert cli_main(sim_args) == 0
    first = hashes(sim)
    assert cli_main(sim_args) == 0
    assert hashes(sim) == first

    fit_dir = tmp_path / "fit"
    fit_args = [
        "fit",
        "--measurements", str(sim / "measurements.csv"),
        "--layout", str(sim / "layout.csv"),
        "--out", str(fit_dir),
        "--window", "0",
        "--model", "fcsar",
        "--b", "1",
        "--p", "1",
        "--knots", "8",
        "--verbosity", "0",
    ]
    assert cli_main(fit_args) == 0
    first = hashes(fit_dir)
    assert cli_main(fit_args) == 0
    assert hashes(fit_dir) == first
    finish(
        "10 decomposition + determinism",
        t0,
        60,
        f"worst reconstruction gap {worst:.2e}; simulate and fit reruns "
        "byte-identical",
    )
