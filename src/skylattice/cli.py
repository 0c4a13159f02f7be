"""Batch command line front end.

Subcommands cover the whole workflow: simulate a synthetic sensor
field, detrend raw measurements, fit one of the five models, run
leave-k-sensors-out cross-validation against the interpolation
baseline, run the fit-order separability diagnostic, and sweep
averaging windows for a model-quality report.

Every option can come from a ``key=value`` config file (``--config``);
command-line flags override file entries, file entries override the
documented defaults.  All outputs land under ``--out`` next to a
``run.json`` echo of the fully resolved configuration, so a run can be
reproduced from its output directory alone.  Commands are deterministic
given (config, seed): reruns produce byte-identical files.

Exit codes: 0 on success, 1 on runtime failure (unreadable input,
fitting error, unwritable output), 2 on usage errors.  A runtime
failure prints one ``error:`` line; ``--verbosity 2`` prints its
traceback first.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    SpatioTemporalField,
    _write_csv_rows,
    detrend,
    grid_layout,
    ingest_field,
    read_layout_csv,
    read_measurements_csv,
    time_average,
    timestamp_strings,
    write_layout_csv,
    write_measurements_csv,
)
from .evaluation import (
    CrossvalPlan,
    adjusted_r2,
    crossval,
    rmpe_ratio,
    rmse,
    write_rmpe_ratio_csv,
    write_window_rmse_csv,
)
from .fcar import FcarOptions, FcarSpec, effective_params, fit_fcar
from .fcsar import (
    FcsarSpec,
    fit_fcsar,
    fit_separable,
    nan_padded,
    separability_diagnostic,
    write_separability_csv,
)
from .simulation import FieldSimConfig, simulate_field
from .spatial import build_neighbor_graph, sar_residuals_field

SIM_MODES = ("advective", "separable")
REGIMES = ("clear", "partly_cloudy", "overcast")


class UsageError(Exception):
    """Bad option value or config entry; maps to exit code 2."""


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise UsageError(f"expected an integer, got {s!r}") from None


def _parse_float(s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise UsageError(f"expected a number, got {s!r}") from None


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {s!r}")


def _parse_pair(s: str) -> tuple[float, float]:
    parts = s.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected two comma-separated numbers, got {s!r}")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


def _parse_int_list(s: str) -> tuple[int, ...]:
    return tuple(_parse_int(tok) for tok in s.split(",") if tok.strip())


def _parse_float_list(s: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in s.split(",") if tok.strip())


@dataclass(frozen=True)
class Opt:
    """One configurable option: flag, config-file key, and default."""

    name: str
    default: object
    parse: Callable[[str], object]
    help: str
    choices: Optional[tuple] = None
    is_flag: bool = False

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        flag = "--" + self.name.replace("_", "-")
        if self.is_flag:
            parser.add_argument(
                flag,
                dest=self.name,
                action="store_const",
                const="true",
                default=None,
                help=f"{self.help} (default: {self.default})",
            )
        else:
            parser.add_argument(
                flag,
                dest=self.name,
                type=str,
                default=None,
                metavar="V",
                help=f"{self.help} (default: {self.default})",
            )


def _common_opts() -> list[Opt]:
    return [
        Opt("out", "out", str, "output directory; created if missing"),
        Opt("label", "field", str, "row label used in report CSVs"),
        Opt("seed", 0, _parse_int, "random seed for anything stochastic"),
        Opt(
            "verbosity",
            1,
            _parse_int,
            "0 silent, 1 summary lines, 2 chatty with error tracebacks",
        ),
    ]


def _io_opts() -> list[Opt]:
    return [
        Opt("measurements", "", str, "long-form measurements CSV (required)"),
        Opt("layout", "", str, "sensor layout CSV (required)"),
    ]


DETREND_OPT = Opt(
    "detrend",
    False,
    _parse_bool,
    "treat the input as raw and remove the diurnal trend first",
    is_flag=True,
)
TREND_BANDWIDTH_OPT = Opt(
    "trend_bandwidth",
    0.0,
    _parse_float,
    "detrending kernel bandwidth in seconds; 0 picks the default",
)


def _prep_opts() -> list[Opt]:
    return [
        DETREND_OPT,
        TREND_BANDWIDTH_OPT,
        Opt(
            "window",
            600.0,
            _parse_float,
            "averaging window in seconds before fitting; 0 keeps the "
            "native cadence",
        ),
    ]


def _model_opts(with_b: bool = True) -> list[Opt]:
    opts = [
        Opt("knn", 2, _parse_int, "nearest neighbors per sensor"),
        Opt("p", 2, _parse_int, "temporal autoregressive order"),
        Opt("d", 1, _parse_int, "delay of the functional variable"),
        Opt("knots", 0, _parse_int, "spline knot count; 0 picks the default"),
        Opt(
            "bandwidth",
            0.0,
            _parse_float,
            "kernel bandwidth for the curve refinement; 0 picks the default",
        ),
    ]
    if with_b:
        opts.insert(1, Opt("b", 2, _parse_int, "neighbor lag depth"))
    return opts


def _sim_opts() -> list[Opt]:
    return [
        Opt("mode", "advective", str, "field type", choices=SIM_MODES),
        Opt("regime", "partly_cloudy", str, "sky condition", choices=REGIMES),
        Opt("nx", 4, _parse_int, "grid columns"),
        Opt("ny", 4, _parse_int, "grid rows"),
        Opt("spacing", 90.0, _parse_float, "grid spacing in meters"),
        Opt("T", 144, _parse_int, "number of time steps"),
        Opt("dt", 30.0, _parse_float, "sample cadence in seconds"),
        Opt("velocity", (3.0, 0.0), _parse_pair, "cloud motion vx,vy in m/s"),
        Opt("corr_length", 120.0, _parse_float, "spatial correlation length (m)"),
        Opt(
            "diurnal",
            0.0,
            _parse_float,
            "amplitude of an added daily trend; > 0 yields a raw field",
        ),
    ]


# command name -> (help text, options, function)
COMMANDS: dict[str, tuple[str, list[Opt], Callable[[dict], None]]] = {}


def _register(name: str, help_text: str, opts: list[Opt]):
    def wrap(func):
        COMMANDS[name] = (help_text, opts, func)
        return func

    return wrap


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, opts: list[Opt]) -> dict:
    file_values = _parse_config_file(args.config) if args.config else {}
    known = {o.name for o in opts}
    unknown = sorted(set(file_values) - known)
    if unknown:
        raise UsageError(
            f"config keys {unknown} are not options of {args.command!r}"
        )
    resolved: dict = {}
    for opt in opts:
        raw = getattr(args, opt.name)
        if raw is None and opt.name in file_values:
            raw = file_values[opt.name]
        if raw is None:
            value = opt.default
        else:
            value = opt.parse(raw)
        if opt.choices is not None and value not in opt.choices:
            raise UsageError(
                f"--{opt.name.replace('_', '-')} must be one of "
                f"{list(opt.choices)}, got {value!r}"
            )
        resolved[opt.name] = value
    return resolved


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _validate_common(cfg: dict) -> None:
    _check(cfg["verbosity"] >= 0, "--verbosity must be >= 0")


def _validate_model(cfg: dict) -> None:
    _check(cfg["knn"] >= 1, "--knn must be >= 1")
    if "b" in cfg:
        _check(cfg["b"] >= 1, "--b must be >= 1")
    _check(cfg["p"] >= 1, "--p must be >= 1")
    _check(1 <= cfg["d"] <= cfg["p"], "--d must satisfy 1 <= d <= p")
    _check(cfg["knots"] >= 0, "--knots must be >= 0")
    _check(cfg["bandwidth"] >= 0, "--bandwidth must be >= 0")


def _validate_prep(cfg: dict) -> None:
    if "window" in cfg:
        _check(cfg["window"] >= 0, "--window must be >= 0")
    _check(cfg["trend_bandwidth"] >= 0, "--trend-bandwidth must be >= 0")


def _say(cfg: dict, level: int, message: str) -> None:
    if cfg["verbosity"] >= level:
        print(message)


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _start_run(cfg: dict, command: str) -> Path:
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": command,
        "version": __version__,
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
    }
    (out_dir / "run.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )
    return out_dir


def _read_field(cfg: dict, kind: str) -> SpatioTemporalField:
    _check(bool(cfg["measurements"]), "--measurements is required")
    _check(bool(cfg["layout"]), "--layout is required")
    layout = read_layout_csv(cfg["layout"])
    return ingest_field(read_measurements_csv(cfg["measurements"]), layout, kind=kind)


def _load_field(cfg: dict) -> SpatioTemporalField:
    """Read the input, detrend it under --detrend, average it under --window."""
    field = _read_field(cfg, "raw" if cfg["detrend"] else "detrended")
    if cfg["detrend"]:
        field, _ = detrend(field, bandwidth=cfg["trend_bandwidth"] or None)
    if cfg.get("window"):
        field = time_average(field, cfg["window"])
    return field


def _temporal_spec(cfg: dict) -> FcarSpec:
    return FcarSpec.delay_absorbed(cfg["p"], cfg["d"])


def _fcar_options(cfg: dict) -> FcarOptions:
    return FcarOptions(
        n_knots=cfg["knots"] or None, bandwidth=cfg["bandwidth"] or None
    )


def _field_rows(field: SpatioTemporalField, support: int, *columns: np.ndarray):
    """Rows (t, sensor, *values) of S x T matrices from time index ``support`` on."""
    stamps = timestamp_strings(field.timestamps)
    # one tolist() per matrix and rows built by zip and map: per-cell numpy
    # indexing would cost more than writing the rows
    cols = [c.T.tolist() for c in columns]
    for j in range(support, field.n_times):
        yield from zip(
            repeat(stamps[j]), field.layout.ids, *(map(repr, c[j]) for c in cols)
        )


# --------------------------------------------------------------- models


class ModelFit(NamedTuple):
    """What ``fit`` reports of one model.

    ``fitted`` and ``residuals`` are S x T, NaN before ``support``;
    ``extra`` holds the model's own fit.json entries.
    """

    fitted: np.ndarray
    residuals: np.ndarray
    support: int
    n_params: float
    extra: dict


def _fit_fcar_each(field: SpatioTemporalField, cfg: dict) -> ModelFit:
    spec, options = _temporal_spec(cfg), _fcar_options(cfg)
    fits = [fit_fcar(x, spec, options) for x in field.values]
    return ModelFit(
        nan_padded(np.stack([f.fitted for f in fits]), field.n_times),
        nan_padded(np.stack([f.residuals for f in fits]), field.n_times),
        max(f.t_start for f in fits),
        float(sum(effective_params(f) for f in fits)),
        {},
    )


def _fit_sar(field: SpatioTemporalField, cfg: dict) -> ModelFit:
    graph = build_neighbor_graph(field.layout, cfg["knn"])
    result = sar_residuals_field(field, graph)
    residuals = result.field.values
    return ModelFit(
        field.values - residuals,
        residuals,
        0,
        2.0 * result.trace.rho.size,
        {"mean_rho": float(result.trace.rho.mean())},
    )


def _fit_separable_order(order: str, field: SpatioTemporalField, cfg: dict) -> ModelFit:
    graph = build_neighbor_graph(field.layout, cfg["knn"])
    fit = fit_separable(field, order, graph, _temporal_spec(cfg), _fcar_options(cfg))
    n_params = 2.0 * fit.sar_trace.rho.size + float(
        sum(effective_params(f) for f in fit.fcar_fits)
    )
    return ModelFit(
        fit.fitted_values,
        fit.residuals,
        fit.support_start,
        n_params,
        {"first_stage_rmse": fit.first_stage_rmse},
    )


def _fit_coupled(field: SpatioTemporalField, cfg: dict) -> ModelFit:
    graph = build_neighbor_graph(field.layout, cfg["knn"])
    spec = FcsarSpec.uniform(graph, cfg["b"], _temporal_spec(cfg))
    fit = fit_fcsar(field, spec, _fcar_options(cfg))
    return ModelFit(
        fit.fitted_values,
        fit.residuals,
        fit.support_start,
        fit.total_params,
        {"deficient_sensors": list(fit.deficient_sensors)},
    )


# model name -> fit; ``fit --model`` accepts exactly these keys
MODELS: dict[str, Callable[[SpatioTemporalField, dict], ModelFit]] = {
    "fcar": _fit_fcar_each,
    "sar": _fit_sar,
    "separable-st": partial(_fit_separable_order, "space_then_time"),
    "separable-ts": partial(_fit_separable_order, "time_then_space"),
    "fcsar": _fit_coupled,
}
FIT_MODELS = tuple(MODELS)


# --------------------------------------------------------------- commands


@_register("simulate", "generate a synthetic sensor field", _common_opts() + _sim_opts())
def cmd_simulate(cfg: dict) -> None:
    _check(cfg["T"] >= 2, "--T must be >= 2")
    _check(cfg["dt"] > 0, "--dt must be > 0")
    _check(cfg["nx"] >= 1 and cfg["ny"] >= 1, "--nx and --ny must be >= 1")
    _check(cfg["spacing"] > 0, "--spacing must be > 0")
    _check(cfg["corr_length"] > 0, "--corr-length must be > 0")
    layout = grid_layout(cfg["nx"], cfg["ny"], cfg["spacing"])
    sim = FieldSimConfig(
        layout=layout,
        n_times=cfg["T"],
        dt_seconds=cfg["dt"],
        regime=cfg["regime"],
        mode=cfg["mode"],
        velocity=cfg["velocity"],
        corr_length=cfg["corr_length"],
        diurnal_amplitude=cfg["diurnal"],
        seed=cfg["seed"],
    )
    field = simulate_field(sim)
    out_dir = _start_run(cfg, "simulate")
    write_measurements_csv(field, out_dir / "measurements.csv")
    write_layout_csv(field.layout, out_dir / "layout.csv")
    v = field.values
    _say(
        cfg,
        1,
        f"simulated {field.n_sensors} sensors x {field.n_times} steps "
        f"({cfg['mode']}, {cfg['regime']}): mean={v.mean():.4g} "
        f"sd={v.std():.4g} min={v.min():.4g} max={v.max():.4g}",
    )


@_register(
    "detrend",
    "remove the diurnal trend from raw measurements",
    _common_opts() + _io_opts() + [TREND_BANDWIDTH_OPT],
)
def cmd_detrend(cfg: dict) -> None:
    _validate_prep(cfg)
    field = _read_field(cfg, "raw")
    detrended, trend = detrend(field, bandwidth=cfg["trend_bandwidth"] or None)
    out_dir = _start_run(cfg, "detrend")
    write_measurements_csv(detrended, out_dir / "detrended.csv")
    write_measurements_csv(
        field.replace_values(trend.trend, kind="raw"), out_dir / "trend.csv"
    )
    _say(
        cfg,
        1,
        f"detrended {field.n_sensors} sensors x {field.n_times} steps, "
        f"trend bandwidth {trend.bandwidth:.6g}s, "
        f"residual sd {detrended.values.std():.4g}",
    )


@_register(
    "fit",
    "fit one model and write fit/residual/plot-data files",
    _common_opts()
    + _io_opts()
    + _prep_opts()
    + [Opt("model", "fcsar", str, "model to fit", choices=FIT_MODELS)]
    + _model_opts(),
)
def cmd_fit(cfg: dict) -> None:
    _validate_prep(cfg)
    _validate_model(cfg)
    field = _load_field(cfg)
    model = cfg["model"]
    fit = MODELS[model](field, cfg)
    support = fit.support

    obs = field.values[:, support:]
    fitted = fit.fitted[:, support:]
    value_rmse = rmse(obs, fitted)
    adj = adjusted_r2(obs, fitted, fit.n_params) if fit.n_params < obs.size else None

    out_dir = _start_run(cfg, "fit")
    _write_csv_rows(
        out_dir / "fitted.csv",
        ["t", "sensor", "observed", "fitted"],
        _field_rows(field, support, field.values, fit.fitted),
    )
    _write_csv_rows(
        out_dir / "residuals.csv",
        ["t", "sensor", "residual"],
        _field_rows(field, support, fit.residuals),
    )
    summary = {
        "model": model,
        "rmse": value_rmse,
        "adj_r2": adj,
        "n_params": fit.n_params,
        "support_start": support,
        "n_sensors": field.n_sensors,
        "n_times": field.n_times,
        **fit.extra,
    }
    (out_dir / "fit.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    adj_text = f" adj_r2={adj:.6g}" if adj is not None else ""
    _say(cfg, 1, f"{cfg['label']} model={model} rmse={value_rmse:.10g}{adj_text}")


@_register(
    "crossval",
    "leave-k-sensors-out comparison against interpolation",
    _common_opts()
    + _io_opts()
    + _prep_opts()
    + _model_opts()
    + [
        Opt("k", (1,), _parse_int_list, "missing-sensor counts, e.g. 1,2,3"),
        Opt("cap", 2000, _parse_int, "max subsets per k before seeded sampling"),
    ],
)
def cmd_crossval(cfg: dict) -> None:
    _validate_prep(cfg)
    _validate_model(cfg)
    _check(len(cfg["k"]) > 0, "--k needs at least one value")
    _check(all(k >= 1 for k in cfg["k"]), "--k values must be >= 1")
    _check(cfg["cap"] >= 1, "--cap must be >= 1")
    field = _load_field(cfg)
    spec = FcsarSpec.uniform(
        build_neighbor_graph(field.layout, cfg["knn"]), cfg["b"], _temporal_spec(cfg)
    )
    options = _fcar_options(cfg)
    out_dir = _start_run(cfg, "crossval")
    rows = []
    for k in cfg["k"]:
        plan = CrossvalPlan.all_subsets(
            field.n_sensors, k, cap=cfg["cap"], seed=cfg["seed"]
        )
        report_model = crossval(
            field, plan, "fcsar", spec, options, eval_start=cfg["b"]
        )
        report_base = crossval(
            field, plan, "natural_neighbor", eval_start=cfg["b"]
        )
        ratio = rmpe_ratio(report_model, report_base)
        rows.append((cfg["label"], k, ratio))
        sampled = " (sampled)" if plan.sampled else ""
        _say(
            cfg,
            1,
            f"{cfg['label']} k={k}: {len(plan.combinations)} subsets{sampled}, "
            f"mean RMPE {report_model.mean_rmpe:.6g} vs "
            f"{report_base.mean_rmpe:.6g}, ratio {ratio:.6g}",
        )
        _say(
            cfg,
            2,
            "  per-subset RMPE: "
            + ", ".join(f"{v:.6g}" for v in report_model.rmpe_values),
        )
    write_rmpe_ratio_csv(rows, out_dir / "rmpe_ratio.csv")


@_register(
    "diagnose",
    "fit-order separability diagnostic",
    _common_opts()
    + _io_opts()
    + _prep_opts()
    + _model_opts(with_b=False)
    + [Opt("threshold", 1.5, _parse_float, "order-ratio verdict threshold")],
)
def cmd_diagnose(cfg: dict) -> None:
    _validate_prep(cfg)
    _validate_model(cfg)
    _check(cfg["threshold"] > 0, "--threshold must be > 0")
    field = _load_field(cfg)
    graph = build_neighbor_graph(field.layout, cfg["knn"])
    report = separability_diagnostic(
        field,
        graph,
        _temporal_spec(cfg),
        _fcar_options(cfg),
        label=cfg["label"],
        threshold=cfg["threshold"],
    )
    out_dir = _start_run(cfg, "diagnose")
    write_separability_csv([report], out_dir / "separability.csv")
    _say(
        cfg,
        1,
        f"{report.label}: st={report.st_rmse:.6g} ts={report.ts_rmse:.6g} "
        f"b1={report.fcsar_b1_rmse:.6g} b2={report.fcsar_b2_rmse:.6g} "
        f"ratio={report.order_ratio:.4g} -> {report.verdict}",
    )


@_register(
    "report",
    "averaging-window sweep of model quality",
    _common_opts()
    + _io_opts()
    + [
        DETREND_OPT,
        TREND_BANDWIDTH_OPT,
        Opt(
            "windows",
            (600.0, 300.0, 60.0, 30.0),
            _parse_float_list,
            "averaging windows in seconds, longest first",
        ),
    ]
    + _model_opts(),
)
def cmd_report(cfg: dict) -> None:
    _validate_model(cfg)
    _check(len(cfg["windows"]) > 0, "--windows needs at least one value")
    _check(all(w > 0 for w in cfg["windows"]), "--windows values must be > 0")
    _validate_prep(cfg)
    field = _load_field(cfg)
    out_dir = _start_run(cfg, "report")
    rows = []
    for window in cfg["windows"]:
        averaged = time_average(field, window)
        fit = MODELS["fcsar"](averaged, cfg)
        obs = averaged.values[:, fit.support :]
        fitted = fit.fitted[:, fit.support :]
        window_rmse = rmse(obs, fitted)
        adj = adjusted_r2(obs, fitted, fit.n_params)
        rows.append((cfg["label"], window, window_rmse, adj))
        _say(
            cfg,
            1,
            f"{cfg['label']} window={window:g}s rmse={window_rmse:.6g} "
            f"adj_r2={adj:.6g}",
        )
    write_window_rmse_csv(rows, out_dir / "window_rmse.csv")


# --------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skylattice",
        description="Spatio-temporal lattice models for sensor networks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, opts, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument(
            "--config",
            default=None,
            metavar="FILE",
            help="key=value config file; flags override its entries",
        )
        for opt in opts:
            opt.add_to(sp)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg: dict = {}
    try:
        _, opts, func = COMMANDS[args.command]
        cfg = _resolve(args, opts)
        _validate_common(cfg)
        func(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        if cfg.get("verbosity", 1) >= 2:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
