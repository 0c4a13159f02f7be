"""End-to-end command line tests: every subcommand, config handling, exit codes."""

import csv
import hashlib
import importlib
import importlib.util
import json
import os
import re
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


def test_simulate_grid_columns_and_rows(tmp_path):
    # --nx counts grid columns (distinct x), --ny grid rows (distinct y)
    out = tmp_path / "wide"
    assert run_cli("simulate", "--out", out, "--T", 20, "--nx", 5, "--ny", 3) == 0
    layout = read_layout_csv(out / "layout.csv")
    assert layout.n_sensors == 15
    assert np.unique(layout.xy[:, 0]).size == 5
    assert np.unique(layout.xy[:, 1]).size == 3


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


@pytest.mark.parametrize(
    "flags",
    [
        ("--diurnal", "nan"),
        ("--corr-length", "inf"),
        ("--velocity", "nan,0"),
        ("--dt", "inf"),
        ("--spacing", "inf"),
        ("--nx", "1", "--ny", "2"),
        ("--diurnal", "-1"),
        ("--seed", "-1"),
        ("--nx", "0"),
        ("--T", "1"),
    ],
    ids=" ".join,
)
def test_simulate_rejects_unusable_values_before_writing(tmp_path, capsys, flags):
    out = tmp_path / "sim"
    assert run_cli("simulate", "--out", out, "--T", 20, *flags) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {flags[0]} ")
    assert not out.exists()


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


def test_detrend_singular_fit_names_bandwidth_not_sensor(tmp_path, capsys):
    # a 30 s kernel on 30 s samples weights the centre sample only
    raw = tmp_path / "raw"
    assert run_cli("simulate", "--out", raw, "--T", 48, "--diurnal", 50) == 0
    out = tmp_path / "det"
    code = run_cli(
        "detrend",
        "--measurements", raw / "measurements.csv",
        "--layout", raw / "layout.csv",
        "--out", out,
        "--trend-bandwidth", 30,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "error: singular local fit at time index 0: bandwidth 30s spans too "
        "few samples at spacing 30s"
    )
    assert "sensor" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["detrend", "fit"])
@pytest.mark.parametrize(
    "column, token, what",
    [(0, "nan", "timestamp 'nan'"), (2, "inf", "value 'inf'")],
)
def test_non_finite_csv_cell_names_path_and_line(
    tmp_path, sim_dir, capsys, command, column, token, what
):
    # a non-finite timestamp or reading is an input error at its line, not
    # a gap reported later as a sensor missing at some time index
    lines = (sim_dir / "measurements.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[column] = token
    lines[5] = ",".join(cells)
    meas = tmp_path / "measurements.csv"
    meas.write_text("\n".join(lines) + "\n")
    args = ["--measurements", meas, "--layout", sim_dir / "layout.csv", "--out", tmp_path / "o"]
    if command == "fit":
        args += ["--model", "sar"]
    assert run_cli(command, *args) == 1
    assert capsys.readouterr().err.startswith(f"error: {meas}:6: {what} is not finite")


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
        # the neighbor coefficients (S x knn x b) plus each sensor's smoother trace
        assert fit.beta.size == 16 * 2 * 2
        n_params = float(fit.beta.size) + float(
            sum(effective_params(f) for f in fit.fcar_fits)
        )
        return fit.fitted_values, fit.support_start, n_params
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


def test_config_file_with_bom_is_read(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed = 5\n")
    assert run_cli("simulate", "--config", cfg, "--T", 20, "--out", tmp_path / "sim") == 0
    assert json.loads((tmp_path / "sim" / "run.json").read_text())["config"]["seed"] == 5


def test_config_file_is_utf8_whatever_the_locale(tmp_path):
    # PYTHONUTF8=0 keeps the C locale's ASCII as the default encoding
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("label = café\n".encode("utf-8"))
    out = tmp_path / "sim"
    proc = run_child(
        "-m", "skylattice", "simulate", "--config", str(cfg), "--T", "20", "--out", str(out),
        LC_ALL="C", PYTHONUTF8="0",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "run.json").read_text())["config"]["label"] == "café"


def test_undecodable_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("label = café\n".encode("latin-1"))
    assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "sim") == 2
    assert f"usage error: config file {cfg} is not UTF-8 text" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_run_json_echoes_resolved_config(tmp_path, sim_dir):
    out = tmp_path / "fit"
    assert run_cli(*fit_args(sim_dir, out, "--model", "fcsar")) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["model"] == "fcsar"
    assert run["config"]["b"] == 2
    assert run["config"]["window"] == 0.0


# ------------------------------------------------------------- exit codes


BAD_VALUES = [
    ("detrend", "--trend-bandwidth", "-1"),
    ("fit", "--knn", "0"),
    ("fit", "--knn", "x"),
    ("fit", "--b", "0"),
    ("fit", "--p", "0"),
    ("fit", "--d", "0"),
    ("fit", "--d", "3"),
    ("fit", "--knots", "-1"),
    ("fit", "--bandwidth", "-0.5"),
    ("fit", "--window", "-60"),
    ("fit", "--seed", "-1"),
    ("fit", "--verbosity", "-1"),
    ("fit", "--model", "arima"),
    ("crossval", "--k", "0"),
    ("crossval", "--k", "1,x"),
    ("crossval", "--k", ","),
    ("crossval", "--cap", "0"),
    ("crossval", "--bandwidth", "nan"),
    ("diagnose", "--threshold", "0"),
    ("diagnose", "--knn", "1.5"),
    ("report", "--windows", "0"),
    ("report", "--windows", "60,-30"),
    ("report", "--knots", "x"),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command, flag, value", BAD_VALUES, ids=[" ".join(c) for c in BAD_VALUES]
)
def test_bad_option_value_names_its_flag(
    tmp_path, sim_dir, capsys, source, command, flag, value
):
    # the same rule applies whether the value comes from a flag or a config entry
    out = tmp_path / "out"
    args = [
        "--measurements", sim_dir / "measurements.csv",
        "--layout", sim_dir / "layout.csv",
    ]
    if source == "flag":
        args += [flag, value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        args += ["--config", cfg]
    assert run_cli(command, *args, "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {flag} ")
    assert not out.exists()


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


def _edited_copy(sim, tmp_path, name, line, edit):
    """Copy the simulated field to tmp_path with one line of ``name`` edited."""
    out = tmp_path / "edited"
    out.mkdir()
    for f in ("layout.csv", "measurements.csv"):
        lines = (sim / f).read_text().splitlines(keepends=True)
        if f == name:
            lines[line - 1] = edit(lines[line - 1])
        (out / f).write_text("".join(lines))
    return out


@pytest.mark.parametrize(
    "name, line, edit, message",
    [
        ("layout.csv", 4, lambda row: "s02,180.0\n", "expected 3 columns, got 2"),
        ("layout.csv", 3, lambda row: "s01,abc,0.0\n", "could not convert string to float: 'abc'"),
        ("measurements.csv", 6, lambda row: row.rsplit(",", 1)[0] + ",12x\n",
         "could not convert string to float: '12x'"),
        ("measurements.csv", 9, lambda row: "noon," + row.split(",", 1)[1],
         "cannot parse timestamp 'noon'"),
    ],
    ids=["layout-short-row", "layout-coordinate", "measurement-value", "measurement-timestamp"],
)
def test_bad_csv_cell_names_file_and_line(tmp_path, sim_dir, capsys, name, line, edit, message):
    edited = _edited_copy(sim_dir, tmp_path, name, line, edit)
    assert run_cli(*fit_args(edited, tmp_path / "x", "--model", "sar")) == 1
    err = capsys.readouterr().err
    assert f"{edited / name}:{line}: {message}" in err


@pytest.mark.parametrize(
    "name, message", [("layout.csv", "no sensors"), ("measurements.csv", "no records")]
)
def test_header_only_input_names_the_file(tmp_path, sim_dir, capsys, name, message):
    edited = _edited_copy(sim_dir, tmp_path, name, 1, lambda header: header)
    (edited / name).write_text((sim_dir / name).read_text().splitlines(keepends=True)[0])
    assert run_cli(*fit_args(edited, tmp_path / "x", "--model", "sar")) == 1
    assert capsys.readouterr().err == f"error: {edited / name}: {message}\n"


@pytest.mark.parametrize(
    "command",
    [("fit", "--model", m) for m in FIT_MODELS] + [("crossval",), ("diagnose",)],
    ids=[f"fit-{m}" for m in FIT_MODELS] + ["crossval", "diagnose"],
)
def test_gap_error_names_sensor_and_time_index(tmp_path, sim_dir, capsys, command):
    # line 2 + 16 * 7 + 5 holds sensor s05 at time index 7
    edited = _edited_copy(
        sim_dir, tmp_path, "measurements.csv", 2 + 16 * 7 + 5,
        lambda row: row.rsplit(",", 1)[0] + ",NA\n",
    )
    t = float((sim_dir / "measurements.csv").read_text().splitlines()[1 + 16 * 7 + 5].split(",")[0])
    assert run_cli(*command, *fit_args(edited, tmp_path / "x")[1:]) == 1
    err = capsys.readouterr().err
    assert f"requires a complete field: sensor 's05' is missing at time index 7 (t={t:.0f})" in err


@pytest.fixture(scope="module")
def flat_sensor_dir(tmp_path_factory):
    """``simulate --T 144 --seed 1`` with sensor s05 at 0.0 at every step."""
    sim = tmp_path_factory.mktemp("flat") / "sim"
    assert run_cli("simulate", "--out", sim, "--T", 144, "--seed", 1) == 0
    lines = (sim / "measurements.csv").read_text().splitlines(keepends=True)
    flat = [
        row.rsplit(",", 1)[0] + ",0.0\n" if row.split(",")[1] == "s05" else row
        for row in lines
    ]
    (sim / "measurements.csv").write_text("".join(flat))
    return sim


FLAT_FAILS = [("fit", "--model", m) for m in ("fcar", "fcsar", "separable-ts")]
FLAT_FAILS += [("diagnose",), ("crossval",), ("report",)]


@pytest.mark.parametrize("command", FLAT_FAILS, ids=" ".join)
def test_flat_sensor_error_names_the_sensor(tmp_path, flat_sensor_dir, capsys, command):
    # a failed fit leaves no output directory behind, not even run.json
    args = (
        "--measurements", flat_sensor_dir / "measurements.csv",
        "--layout", flat_sensor_dir / "layout.csv",
        "--out", tmp_path / "x",
        "--windows" if command == ("report",) else "--window", 60,
    )
    assert run_cli(*command, *args) == 1
    err = capsys.readouterr().err
    assert "'s05'" in err
    assert "sensor 's05', time indices 2..71: functional variable is constant" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("model", ["separable-st", "sar"])
def test_flat_sensor_fits_where_no_fcar_sees_it(tmp_path, flat_sensor_dir, model):
    # the spatial stage runs first, so no per-sensor fcar fit sees the flat series
    args = (
        "--measurements", flat_sensor_dir / "measurements.csv",
        "--layout", flat_sensor_dir / "layout.csv",
        "--out", tmp_path / "x",
        "--window", 60,
    )
    assert run_cli("fit", "--model", model, *args) == 0


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


def test_crossval_too_short_series_names_no_held_out_sensor(tmp_path, capsys):
    # simulate's default T=144 at 30 s leaves 7 steps at crossval's default
    # 600 s window: too short for every training subset alike
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--out", sim) == 0
    data = ("--measurements", sim / "measurements.csv", "--layout", sim / "layout.csv")
    assert run_cli("crossval", *data, "--out", tmp_path / "cv") == 1
    assert capsys.readouterr().err.startswith("error: series too short:")


@pytest.mark.parametrize("n_times", [180, 199])
def test_crossval_default_knot_count_names_no_held_out_sensor(tmp_path, capsys, n_times):
    # 8 or 9 steps at crossval's default 600 s window pass the length rule
    # but are too few to choose a knot count: true of every training subset
    # alike, so the rule runs once, before any subset
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--out", sim, "--T", n_times) == 0
    data = ("--measurements", sim / "measurements.csv", "--layout", sim / "layout.csv")
    assert run_cli("crossval", *data, "--out", tmp_path / "cv") == 1
    err = capsys.readouterr().err
    assert err == "error: need T >= 10 to choose a knot count\n"
    assert "held out" not in err and not (tmp_path / "cv").exists()


def test_crossval_collinear_layout_is_one_line_error(tmp_path, capsys):
    # four sensors in a row: the fcsar refits run, and the interpolation
    # baseline finds no hull interior to take Voronoi areas in
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--out", sim, "--nx", 4, "--ny", 1, "--T", 240) == 0
    data = ("--measurements", sim / "measurements.csv", "--layout", sim / "layout.csv")
    capsys.readouterr()
    assert run_cli("crossval", *data, "--window", 0, "--out", tmp_path / "cv") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err == (
        "error: interpolation failed with sensors ('s0',) held out: degenerate layout "
        "geometry: the convex hull of 3 sensors has no interior\n"
    )
    assert "QH" not in err and "Qhull" not in err


def test_crossval_repeated_k_is_usage_error(tmp_path, sim_dir, capsys):
    args = fit_args(sim_dir, tmp_path / "cv")[1:]
    assert run_cli("crossval", *args, "--k", "1,2,1") == 2
    assert "--k repeats the value 1" in capsys.readouterr().err
    assert not (tmp_path / "cv").exists()


# ------------------------------------------------------------- diagnose


def test_diagnose_command(tmp_path, sim_dir, capsys):
    # the summary line is pinned on both sides of the field's order ratio,
    # 1.136: at the default --threshold 1.5 and at 1.01
    rmses = "field: st=16.9163 ts=19.2202 b1=13.481 b2=13.2803 ratio=1.136"
    for threshold, verdict in (("1.5", "plausible"), ("1.01", "not supported")):
        out = tmp_path / threshold
        code = run_cli(
            "diagnose",
            "--measurements", sim_dir / "measurements.csv",
            "--layout", sim_dir / "layout.csv",
            "--out", out,
            "--window", 0,
            "--p", 1,
            "--knots", 8,
            "--threshold", threshold,
        )
        assert code == 0
        rows = list(csv.reader((out / "separability.csv").open()))
        assert rows[0] == ["label", "st_rmse", "ts_rmse", "fcsar_b1_rmse", "fcsar_b2_rmse"]
        assert len(rows) == 2
        assert "verdict" not in rows[0]
        assert capsys.readouterr().out == f"{rmses} -> separability {verdict}\n"
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["threshold"] == float(threshold)


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


def test_report_repeated_window_is_usage_error(tmp_path, sim_dir, capsys):
    code = run_cli(
        "report",
        "--measurements", sim_dir / "measurements.csv",
        "--layout", sim_dir / "layout.csv",
        "--out", tmp_path / "rep",
        "--windows", "60,60",
    )
    assert code == 2
    assert "--windows repeats the value 60" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_and_fit_share_the_adj_r2_rule(tmp_path):
    # at a 300 s window the fcsar fit's effective parameter count exceeds
    # the 192 scored cells: both commands write no adj_r2 and still succeed
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--out", sim, "--T", 144, "--seed", 1) == 0
    inputs = ("--measurements", sim / "measurements.csv", "--layout", sim / "layout.csv")
    assert run_cli("report", *inputs, "--windows", 300, "--out", tmp_path / "rep") == 0
    assert run_cli("fit", *inputs, "--window", 300, "--out", tmp_path / "fit") == 0
    rows = list(csv.reader((tmp_path / "rep" / "window_rmse.csv").open()))
    assert rows[1][1] == "300" and rows[1][3] == ""
    summary = json.loads((tmp_path / "fit" / "fit.json").read_text())
    assert summary["adj_r2"] is None
    assert summary["n_params"] > 192
    assert rows[1][2] == f"{summary['rmse']:.10g}"


# ------------------------------------------------------------- entry points


def run_child(*args, **env):
    """Run a fresh interpreter on the package this suite imported, installed or
    not, with ``env`` added to the environment."""
    src = str(Path(skylattice.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
    )


# Runs ``main`` on each argv of a JSON list in one interpreter, from the
# directory given first, and prints each call's exit code, stdout and stderr
RUN_MAINS = """
import contextlib, io, json, os, sys
from skylattice.cli import main
os.chdir(sys.argv[1])
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_main_calls_in_one_process_match_separate_processes(tmp_path):
    # the parser is built on the first main call and kept: a good command,
    # a usage error, a parse error and both help texts give, one after
    # another in one process, the exit codes, messages and output bytes
    # that each gives in a process of its own
    commands = [
        ["simulate", "--nx", "3", "--ny", "3", "--T", "40", "--out", "sim"],
        ["simulate", "--T", "1", "--out", "bad"],
        ["simulate", "--no-such-flag", "1"],
        ["crossval", "--help"],
        ["--help"],
    ]

    def run(directory, batch):
        directory.mkdir()
        proc = run_child("-c", RUN_MAINS, str(directory), json.dumps(batch))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    together = run(tmp_path / "one", commands)
    apart = [run(tmp_path / f"apart{i}", [argv])[0] for i, argv in enumerate(commands)]
    assert together == apart
    assert [code for code, _, _ in together] == [0, 2, 2, 0, 0]
    assert together[1][2].startswith("usage error: --T ")
    assert "unrecognized arguments: --no-such-flag" in together[2][2]
    help_hashes = [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in together[3:]]
    assert help_hashes == [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in apart[3:]]
    assert file_hashes(tmp_path / "one" / "sim") == file_hashes(tmp_path / "apart0" / "sim")
    assert not (tmp_path / "one" / "bad").exists()


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch, capsys):
    from skylattice import cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert main(["simulate", "--T", "1", "--out", str(tmp_path / "sim")]) == 2
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        assert built == [1]
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


def test_module_entry_point_reports_version():
    proc = run_child("-m", "skylattice", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy loads slower than the package: the functions that need it import it
    proc = run_child(
        "-c",
        "import sys, skylattice.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------- BLAS thread count
# A fresh process at each OpenBLAS thread count; the bytes a fit writes
# must not depend on it.  Long records matter: at T=2880 the spline blocks
# reach 388 x 195, where a dense SVD's left factor moved with the threads.

FACTOR_T2880 = """
import sys
import numpy as np
from skylattice import fcar
from skylattice.simulation import Expar2Config, simulate_expar2
x = simulate_expar2(Expar2Config(n_times=2880, seed=3))
spec = fcar.FcarSpec(p=2, d=1)
rows = fcar._fit_rows(x, spec, None)
basis = fcar.SplineBasis(fcar.default_knot_count(2880))
block = fcar._spline_design(rows, spec, basis)[1][1]
np.savez(sys.argv[1], U=block.U, sing=block.sing, Vt=block.Vt)
"""


def test_spline_factor_bitwise_equal_across_blas_threads(tmp_path):
    factors = []
    for threads in ("1", "2"):
        out = tmp_path / f"block{threads}.npz"
        proc = run_child("-c", FACTOR_T2880, str(out), OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        factors.append(np.load(out))
    one, two = factors
    assert one["U"].shape == (388, 195)
    for name in ("U", "sing", "Vt"):
        np.testing.assert_array_equal(one[name], two[name], err_msg=name)


def test_fit_bytes_equal_across_blas_threads(tmp_path):
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--out", sim, "--seed", 1, "--T", 2880, "--verbosity", 0) == 0
    data = ("--measurements", sim / "measurements.csv", "--layout", sim / "layout.csv")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"fit{threads}"
        args = ("fit", "--model", "fcsar", "--window", "0", *data, "--out", out)
        proc = run_child(
            "-m", "skylattice", *map(str, args), "--verbosity", "0",
            OPENBLAS_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in ("fitted.csv", "residuals.csv", "fit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def load_repo_script(rel: str):
    """Import a script of this repository by its path under the repo root."""
    path = Path(__file__).resolve().parents[1] / rel
    spec = importlib.util.spec_from_file_location(Path(rel).stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_and_bindings_resolve(monkeypatch):
    # perfbench/tracing.py wraps library functions by name, and the
    # benchmark self-test checks that the tracer patches every module
    # binding of a function; deleting a target or a binding must fail
    # here, not only when the benchmark runs
    tracing = load_repo_script("perfbench/tracing.py")
    for mod_name, fn_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"skylattice.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    # the self-test puts perfbench/ and src/ on sys.path and imports
    # `tracing`; both are undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    load_repo_script("perfbench/selftest.py").check_tracer_bindings()


@pytest.mark.parametrize(
    "command",
    [("fit", "--model", "fcsar", "--window", 0), ("crossval", "--k", 1, "--window", 60)],
    ids=["fit-fcsar", "crossval-loo"],
)
def test_one_spline_svd_per_component_and_sensor(tmp_path, sim_dir, monkeypatch, command):
    # the benchmark's fit_long and crossval_loo commands with CLI defaults
    # (p=2, d=1: two components) on 16 sensors: one fcar design per sensor
    # and command, so 32 SVDs whether a sensor's design is solved for two
    # responses (fit) or for every neighbor set it is backfit with (crossval).
    # Each factors a block's stacked interval triangles, 2(N+1) x (N+2), on
    # their bidiagonal, and never the T-row block itself; no dense SVD runs
    import scipy.linalg

    from skylattice import fcar

    shapes, dense = [], []
    stack_svd, svd = fcar._stack_svd, scipy.linalg.svd

    def counting(*args):
        out = stack_svd(*args)
        shapes.append(out[0].shape)
        return out

    monkeypatch.setattr(fcar, "_stack_svd", counting)
    monkeypatch.setattr(
        scipy.linalg, "svd", lambda a, *r, **kw: dense.append(a.shape) or svd(a, *r, **kw)
    )
    data = ("--measurements", sim_dir / "measurements.csv", "--layout", sim_dir / "layout.csv")
    assert run_cli(*command, *data, "--out", tmp_path / "out") == 0
    assert len(shapes) == 32 and not dense
    assert all(rows <= 2 * (cols - 1) for rows, cols in shapes), shapes


def test_fixture_commands_rerun_byte_identical(tmp_path, monkeypatch):
    # the commands tools/fixture_digests.py runs, with their stdout, twice in
    # one process and two directories: every file of the second run equals
    # the first, byte for byte, so nothing a run leaves behind in the process
    # (a cache, a random state) reaches the next one.  The digest test below
    # runs each set in a fresh interpreter instead
    tool = load_repo_script("tools/fixture_digests.py")
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        out.mkdir()
        monkeypatch.chdir(out)
        assert tool.run_in_cwd(main) == 0
        runs.append(
            {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        )
    assert len(tool.COMMANDS) == 12 and len(runs[0]) == 51
    assert sorted(runs[1]) == sorted(runs[0])
    for name, data in runs[0].items():
        assert runs[1][name] == data, name


def test_fixture_commands_build_no_curve_grid(tmp_path, monkeypatch):
    # no command writes a coefficient curve, and curves are built when
    # read, so the fixture commands never refine one: no sbk_estimate call
    # and no evaluation of the fcar smoother anywhere but at the observed u
    from skylattice import fcar

    counts = {"sbk_estimate": 0, "grid": 0}
    sbk_estimate, moment_smoother = fcar.sbk_estimate, fcar._moment_smoother

    def counting_sbk_estimate(*args):
        counts["sbk_estimate"] += 1
        return sbk_estimate(*args)

    def counting_smoother(u, cols, h, points):
        counts["grid"] += points is not u
        return moment_smoother(u, cols, h, points)

    monkeypatch.setattr(fcar, "sbk_estimate", counting_sbk_estimate)
    monkeypatch.setattr(fcar, "_moment_smoother", counting_smoother)
    tool = load_repo_script("tools/fixture_digests.py")
    monkeypatch.chdir(tmp_path)
    for argv in tool.COMMANDS:
        assert main(list(argv)) == 0, argv
    assert counts == {"sbk_estimate": 0, "grid": 0}


def test_fixture_digests_run_restores_cwd_and_path(tmp_path, monkeypatch, capsys):
    # an in-process caller (tools/unreached.py) keeps its working directory
    # and import path
    tool = load_repo_script("tools/fixture_digests.py")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = list(sys.path)
    assert tool.run_commands(tmp_path / "out", Path(__file__).resolve().parents[1]) == 0
    assert Path.cwd() == tmp_path and sys.path == path
    assert len(capsys.readouterr().out.splitlines()) == 51


def test_fixture_digests_against_names_each_moved_number(tmp_path):
    # --against runs the commands on two checkouts: on this one twice,
    # nothing moves and nothing is printed.  One perturbed cell is then
    # named with its file and difference
    repo = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "fixture_digests.py"), str(tmp_path),
         "--against", str(repo)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    tool = load_repo_script("tools/fixture_digests.py")
    assert len(tool.output_files(tmp_path / "src")) == 51
    fitted = tmp_path / "src" / "fit-fcar" / "fitted.csv"
    header, first, *rest = fitted.read_bytes().decode().splitlines(keepends=True)
    cells = first.rstrip("\r\n")
    t, sensor, observed, value = cells.split(",")
    moved = float(value) + 0.25
    n_numbers = sum(len(re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", line)) for line in [first, *rest])
    row = f"{t},{sensor},{observed},{moved!r}" + first[len(cells):]
    fitted.write_bytes((header + row + "".join(rest)).encode())
    rel = 0.25 / max(abs(float(value)), abs(moved))
    assert tool.compare_trees(tmp_path / "against", tmp_path / "src") == [
        f"fit-fcar/fitted.csv  max_abs {0.25:.3g}  max_rel {rel:.3g}  (1 of {n_numbers} numbers)"
    ]
    (tmp_path / "against" / "diag" / "extra.txt").write_text("x")
    assert tool.compare_trees(tmp_path / "against", tmp_path / "src")[0] == (
        "diag/extra.txt  only in against"
    )


def test_src_lines_counts_only_code_lines():
    tool = load_repo_script("tools/src_lines.py")
    source = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring,
    but a value"""

    def f(self):
        """Function docstring."""
        "a later string statement is code"
        return os.sep
'''
    # import, class, x = (2 lines), def, later string, return
    assert tool.code_lines(source) == 7
    assert tool.code_lines("") == 0


def test_unreached_lists_functions_no_fixture_command_calls():
    # sbk_estimate builds curves, which no command writes; _common_opts runs
    # at import, which the tool profiles too
    tool = Path(__file__).resolve().parents[1] / "tools" / "unreached.py"
    proc = subprocess.run([sys.executable, str(tool)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"skylattice\.\w+:\d+ [\w.<>]+", line) for line in lines), lines
    names = {line.split(" ", 1)[1] for line in lines}
    assert "sbk_estimate" in names
    assert not names & {"_common_opts", "main", "fit_fcsar"}


def test_fixture_digests_do_not_depend_on_the_out_dir(tmp_path):
    # the listing compares the outputs of two checkouts, so it must not
    # change with the directory the commands write into
    tool = Path(__file__).resolve().parents[1] / "tools" / "fixture_digests.py"
    listings = []
    for out in (tmp_path / "a", tmp_path / "deeper" / "b"):
        proc = subprocess.run(
            [sys.executable, str(tool), str(out)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        listings.append(proc.stdout)
    assert listings[0] == listings[1]
    paths = [line.split("  ", 1)[1] for line in listings[0].splitlines()]
    assert len(paths) == 51
    assert paths == sorted(paths)
    assert "fit-sar-raw/run.json" in paths
