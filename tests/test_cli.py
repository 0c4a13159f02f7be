"""End-to-end command line tests: every subcommand, config handling, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skylattice
from skylattice.cli import FIT_MODELS, main
from skylattice.core import ingest_field, read_layout_csv, read_measurements_csv
from skylattice.fcar import FcarOptions, FcarSpec, effective_params, fit_fcar
from skylattice.fcsar import FcsarSpec, fit_fcsar, fit_separable
from skylattice.spatial import build_neighbor_graph, sar_residuals_field


def run_cli(*argv):
    return main([str(a) for a in argv])


def file_hashes(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One small advective field shared by the read-only CLI tests."""
    out = tmp_path_factory.mktemp("sim") / "field"
    code = run_cli("simulate", "--out", out, "--seed", 3, "--T", 60)
    assert code == 0
    return out


def fit_args(sim, out, *extra):
    return (
        "fit",
        "--measurements", sim / "measurements.csv",
        "--layout", sim / "layout.csv",
        "--out", out,
        "--window", 0,
        "--p", 1,
        "--knots", 8,
        *extra,
    )


# ------------------------------------------------------------- simulate


def test_simulate_writes_readable_field(sim_dir):
    layout = read_layout_csv(sim_dir / "layout.csv")
    field = ingest_field(
        read_measurements_csv(sim_dir / "measurements.csv"),
        layout,
        kind="detrended",
    )
    assert field.n_sensors == 16
    assert field.n_times == 60
    assert field.mask is None or not field.mask.any()
    run = json.loads((sim_dir / "run.json").read_text())
    assert run["command"] == "simulate"
    assert run["config"]["seed"] == 3


def test_simulate_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "sim"
    args = ("simulate", "--out", out, "--seed", 11, "--T", 40)
    assert run_cli(*args) == 0
    first = file_hashes(out)
    assert run_cli(*args) == 0
    assert file_hashes(out) == first
    assert set(first) == {"measurements.csv", "layout.csv", "run.json"}


def test_simulate_seed_changes_measurements(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--out", a, "--seed", 0, "--T", 30) == 0
    assert run_cli("simulate", "--out", b, "--seed", 1, "--T", 30) == 0
    assert (a / "measurements.csv").read_bytes() != (b / "measurements.csv").read_bytes()


def test_simulate_raw_field_with_diurnal_trend(tmp_path):
    out = tmp_path / "raw"
    assert run_cli(
        "simulate", "--out", out, "--T", 48, "--diurnal", 50, "--seed", 2
    ) == 0
    layout = read_layout_csv(out / "layout.csv")
    field = ingest_field(
        read_measurements_csv(out / "measurements.csv"), layout, kind="raw"
    )
    assert field.values.std() > 0


# ------------------------------------------------------------- detrend


def test_detrend_command(tmp_path):
    raw = tmp_path / "raw"
    assert run_cli(
        "simulate", "--out", raw, "--T", 96, "--diurnal", 80, "--seed", 5
    ) == 0
    out = tmp_path / "det"
    code = run_cli(
        "detrend",
        "--measurements", raw / "measurements.csv",
        "--layout", raw / "layout.csv",
        "--out", out,
    )
    assert code == 0
    layout = read_layout_csv(out.parent / "raw" / "layout.csv")
    detrended = ingest_field(
        read_measurements_csv(out / "detrended.csv"), layout, kind="detrended"
    )
    trend = ingest_field(
        read_measurements_csv(out / "trend.csv"), layout, kind="raw"
    )
    raw_field = ingest_field(
        read_measurements_csv(raw / "measurements.csv"), layout, kind="raw"
    )
    np.testing.assert_allclose(
        detrended.values + trend.values, raw_field.values, atol=1e-9
    )


# ------------------------------------------------------------- fit


def test_fit_fcsar_outputs(tmp_path, sim_dir):
    out = tmp_path / "fit"
    assert run_cli(*fit_args(sim_dir, out, "--model", "fcsar", "--b", 1)) == 0
    summary = json.loads((out / "fit.json").read_text())
    assert summary["model"] == "fcsar"
    assert np.isfinite(summary["rmse"]) and summary["rmse"] > 0
    assert summary["adj_r2"] <= 1
    assert summary["support_start"] == 1
    assert (out / "fitted.csv").is_file() and (out / "residuals.csv").is_file()


def library_fit(field, model):
    """Fitted S x T matrix, support start and parameter count of one model.

    Calls the library directly, configured as ``fit_args`` configures the
    CLI: knn 2, b 2, p 1, 8 knots.
    """
    spec, options = FcarSpec.delay_absorbed(1, 1), FcarOptions(n_knots=8)
    graph = build_neighbor_graph(field.layout, 2)
    if model == "fcar":
        fits = [fit_fcar(x, spec, options) for x in field.values]
        fitted = np.full(field.values.shape, np.nan)
        for i, f in enumerate(fits):
            fitted[i, f.t_start :] = f.fitted
        return fitted, fits[0].t_start, float(sum(effective_params(f) for f in fits))
    if model == "sar":
        result = sar_residuals_field(field, graph)
        return field.values - result.field.values, 0, 2.0 * result.trace.rho.size
    if model == "fcsar":
        fit = fit_fcsar(field, FcsarSpec.uniform(graph, 2, spec), options)
        return fit.fitted_values, fit.support_start, fit.total_params
    order = {"separable-st": "space_then_time", "separable-ts": "time_then_space"}
    fit = fit_separable(field, order[model], graph, spec, options)
    n_params = 2.0 * fit.sar_trace.rho.size + float(
        sum(effective_params(f) for f in fit.fcar_fits)
    )
    return fit.fitted_values, fit.support_start, n_params


@pytest.mark.parametrize("model", FIT_MODELS)
def test_fit_other_models_run(tmp_path, sim_dir, model):
    out = tmp_path / model
    assert run_cli(*fit_args(sim_dir, out, "--model", model)) == 0
    summary = json.loads((out / "fit.json").read_text())
    assert summary["model"] == model
    assert np.isfinite(summary["rmse"])

    field = ingest_field(
        read_measurements_csv(sim_dir / "measurements.csv"),
        read_layout_csv(sim_dir / "layout.csv"),
        kind="detrended",
    )
    expected, support, n_params = library_fit(field, model)
    assert summary["support_start"] == support
    assert summary["n_params"] == n_params

    rows = list(csv.reader((out / "fitted.csv").open()))
    res_rows = list(csv.reader((out / "residuals.csv").open()))
    assert rows[0] == ["t", "sensor", "observed", "fitted"]
    assert res_rows[0] == ["t", "sensor", "residual"]
    n_steps = field.n_times - support
    assert len(rows) == len(res_rows) == 1 + field.n_sensors * n_steps
    for (t1, sid1, obs, fitted), (t2, sid2, resid) in zip(rows[1:], res_rows[1:]):
        assert (t1, sid1) == (t2, sid2)
        assert float(obs) - float(fitted) == pytest.approx(float(resid), abs=1e-9)
    parsed = np.array([float(r[3]) for r in rows[1:]]).reshape(n_steps, -1).T
    np.testing.assert_array_equal(parsed, expected[:, support:])


def test_fit_rerun_is_byte_identical(tmp_path, sim_dir):
    out = tmp_path / "fit"
    args = fit_args(sim_dir, out, "--model", "fcsar", "--b", 1)
    assert run_cli(*args) == 0
    first = file_hashes(out)
    assert run_cli(*args) == 0
    assert file_hashes(out) == first


def test_fit_with_detrend_flag(tmp_path):
    raw = tmp_path / "raw"
    assert run_cli(
        "simulate", "--out", raw, "--T", 96, "--diurnal", 60, "--seed", 6
    ) == 0
    out = tmp_path / "fit"
    code = run_cli(*fit_args(raw, out, "--model", "fcsar", "--b", 1, "--detrend"))
    assert code == 0
    assert json.loads((out / "fit.json").read_text())["rmse"] > 0


def test_fit_window_averaging(tmp_path, sim_dir):
    out = tmp_path / "fit"
    code = run_cli(*fit_args(sim_dir, out, "--model", "fcsar", "--b", 1))
    assert code == 0
    averaged = tmp_path / "fit60"
    code = run_cli(
        "fit",
        "--measurements", sim_dir / "measurements.csv",
        "--layout", sim_dir / "layout.csv",
        "--out", averaged,
        "--window", 60,
        "--p", 1,
        "--knots", 8,
        "--model", "fcsar",
        "--b", 1,
    )
    assert code == 0
    assert json.loads((averaged / "fit.json").read_text())["n_times"] == 30


# ------------------------------------------------------------- config file


def test_config_file_supplies_options(tmp_path, sim_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        f"measurements = {sim_dir / 'measurements.csv'}\n"
        f"layout = {sim_dir / 'layout.csv'}\n"
        "model = sar\n"
        "window = 0\n"
        "p = 1\n"
        "knots = 8\n"
        f"out = {tmp_path / 'from_file'}\n"
    )
    assert run_cli("fit", "--config", cfg) == 0
    summary = json.loads((tmp_path / "from_file" / "fit.json").read_text())
    assert summary["model"] == "sar"


def test_cli_flags_override_config_file(tmp_path, sim_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = sar\nwindow = 0\np = 1\nknots = 8\n")
    out = tmp_path / "fit"
    code = run_cli(
        "fit",
        "--config", cfg,
        "--measurements", sim_dir / "measurements.csv",
        "--layout", sim_dir / "layout.csv",
        "--out", out,
        "--model", "fcar",
    )
    assert code == 0
    assert json.loads((out / "fit.json").read_text())["model"] == "fcar"


def test_unknown_config_key_is_usage_error(tmp_path, sim_dir, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("banana = 3\n")
    assert run_cli("fit", "--config", cfg) == 2
    assert "banana" in capsys.readouterr().err


def test_malformed_config_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    assert run_cli("fit", "--config", cfg) == 2
    assert "key=value" in capsys.readouterr().err


def test_run_json_echoes_resolved_config(tmp_path, sim_dir):
    out = tmp_path / "fit"
    assert run_cli(*fit_args(sim_dir, out, "--model", "fcsar")) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["model"] == "fcsar"
    assert run["config"]["b"] == 2
    assert run["config"]["window"] == 0.0


# ------------------------------------------------------------- exit codes


def test_invalid_b_is_usage_error(sim_dir, tmp_path, capsys):
    code = run_cli(*fit_args(sim_dir, tmp_path / "x", "--model", "fcsar", "--b", 0))
    assert code == 2
    assert "--b" in capsys.readouterr().err


def test_unknown_flag_exits_2(sim_dir):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--no-such-flag")
    assert exc.value.code == 2


def test_missing_inputs_are_usage_errors(tmp_path, capsys):
    assert run_cli("fit", "--out", tmp_path / "x") == 2
    assert "--measurements" in capsys.readouterr().err


def test_unreadable_input_is_runtime_error(tmp_path, capsys):
    code = run_cli(
        "fit",
        "--measurements", tmp_path / "nope.csv",
        "--layout", tmp_path / "nope2.csv",
        "--out", tmp_path / "x",
        "--window", 0,
    )
    assert code == 1


def test_verbosity_two_prints_the_traceback(tmp_path, capsys):
    args = (
        "fit",
        "--measurements", tmp_path / "nope.csv",
        "--layout", tmp_path / "nope2.csv",
        "--out", tmp_path / "x",
        "--window", 0,
    )
    assert run_cli(*args, "--verbosity", 1) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert run_cli(*args, "--verbosity", 2) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().splitlines()[-1].startswith("error: ")


def test_unwritable_out_is_runtime_error(tmp_path, sim_dir):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = run_cli("simulate", "--out", blocker / "sub", "--T", 30)
    assert code == 1


def test_threads_option_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--out", tmp_path / "x", "--threads", 2)
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "y") == 2
    assert "threads" in capsys.readouterr().err


def test_verbosity_zero_is_silent(tmp_path, capsys):
    assert run_cli(
        "simulate", "--out", tmp_path / "q", "--T", 30, "--verbosity", 0
    ) == 0
    assert capsys.readouterr().out == ""


# ------------------------------------------------------------- crossval


def test_crossval_command(tmp_path, sim_dir, capsys):
    out = tmp_path / "cv"
    code = run_cli(
        "crossval",
        "--measurements", sim_dir / "measurements.csv",
        "--layout", sim_dir / "layout.csv",
        "--out", out,
        "--window", 0,
        "--b", 1,
        "--p", 1,
        "--knots", 8,
        "--k", 1,
    )
    assert code == 0
    rows = list(csv.reader((out / "rmpe_ratio.csv").open()))
    assert rows[0] == ["label", "k", "ratio"]
    assert len(rows) == 2
    assert rows[1][1] == "1"
    assert float(rows[1][2]) > 0
    assert "16 subsets" in capsys.readouterr().out


# ------------------------------------------------------------- diagnose


def test_diagnose_command(tmp_path, sim_dir, capsys):
    out = tmp_path / "diag"
    code = run_cli(
        "diagnose",
        "--measurements", sim_dir / "measurements.csv",
        "--layout", sim_dir / "layout.csv",
        "--out", out,
        "--window", 0,
        "--p", 1,
        "--knots", 8,
    )
    assert code == 0
    rows = list(csv.reader((out / "separability.csv").open()))
    assert rows[0] == ["label", "st_rmse", "ts_rmse", "fcsar_b1_rmse", "fcsar_b2_rmse"]
    assert len(rows) == 2
    assert "verdict" not in rows[0]
    assert "separability" in capsys.readouterr().out


# ------------------------------------------------------------- report


def test_report_command(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert run_cli(
        "simulate", "--out", sim, "--T", 240, "--seed", 4, "--mode", "separable"
    ) == 0
    out = tmp_path / "rep"
    code = run_cli(
        "report",
        "--measurements", sim / "measurements.csv",
        "--layout", sim / "layout.csv",
        "--out", out,
        "--windows", "60,30",
        "--b", 1,
        "--p", 1,
        "--knots", 8,
    )
    assert code == 0
    rows = list(csv.reader((out / "window_rmse.csv").open()))
    assert rows[0] == ["label", "window", "rmse", "adj_r2"]
    assert [r[1] for r in rows[1:]] == ["60", "30"]
    for row in rows[1:]:
        assert float(row[2]) > 0
        assert float(row[3]) <= 1


# ------------------------------------------------------------- entry points


def test_module_entry_point_reports_version():
    # the child imports the package this suite imported, installed or not
    src = str(Path(skylattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "skylattice", "--version"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
