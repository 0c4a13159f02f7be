"""Batch command line front end.

Subcommands cover the whole workflow: simulate a synthetic sensor
field, detrend raw measurements, fit one of the five models, run
leave-k-sensors-out cross-validation against the interpolation
baseline, run the fit-order separability diagnostic, and sweep
averaging windows for a model-quality report.

Every option can come from a ``key=value`` config file (``--config``);
command-line flags override file entries, file entries override the
documented defaults.  Each option's parser holds its whole rule (type,
bound, list shape), and ``_resolve`` runs it on flag and file values
alike, naming the option's flag in any error; commands check only the
rules between options (``--d <= --p``, ``--nx * --ny >= 3``).  All
outputs land under ``--out`` next to a
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
import math
import sys
import traceback
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .core import (
    SpatioTemporalField,
    _write_csv_rows,
    _write_field_csv,
    detrend,
    grid_layout,
    ingest_field,
    read_layout_csv,
    read_measurements_csv,
    time_average,
    write_layout_csv,
    write_measurements_csv,
)
from .evaluation import SUBSET_CAP, CrossvalPlan, adjusted_r2, crossval, rmpe_ratio, rmse
from .fcar import FcarOptions, FcarSpec, effective_params
from .fcsar import (
    FcsarSpec,
    _fit_sensors,
    fit_fcsar,
    fit_separable,
    nan_padded,
    separability_diagnostic,
)
from .simulation import REGIMES, SIM_MODES, FieldSimConfig, simulate_field
from .spatial import build_neighbor_graph, sar_residuals_field


class UsageError(Exception):
    """Bad option value or config entry; maps to exit code 2."""


def _parse_int(s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise UsageError(f"expects an integer, got {s!r}") from None


def _parse_float(s: str) -> float:
    try:
        value = float(s)
    except ValueError:
        raise UsageError(f"expects a number, got {s!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"expects a finite number, got {s!r}")
    return value


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"expects a boolean, got {s!r}")


def _parse_pair(s: str) -> tuple[float, float]:
    parts = s.split(",")
    if len(parts) != 2:
        raise UsageError(f"expects two comma-separated numbers, got {s!r}")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


def _at_least(low: float, parse: Callable[[str], float] = _parse_int):
    """``parse``, then reject values below ``low``."""

    def parse_bounded(s: str) -> float:
        value = parse(s)
        if value < low:
            raise UsageError(f"must be >= {low:g}, got {s!r}")
        return value

    return parse_bounded


def _positive(s: str) -> float:
    value = _parse_float(s)
    if value <= 0:
        raise UsageError(f"must be > 0, got {s!r}")
    return value


def _list_of(parse: Callable[[str], object]):
    """Comma-separated values, each through ``parse``: at least one, none repeated."""

    def parse_list(s: str) -> tuple:
        values = tuple(parse(tok) for tok in s.split(",") if tok.strip())
        if not values:
            raise UsageError(f"needs at least one value, got {s!r}")
        for i, v in enumerate(values):
            if v in values[:i]:
                raise UsageError(f"repeats the value {v:g}")
        return values

    return parse_list


@dataclass(frozen=True)
class Opt:
    """One configurable option: flag, config-file key, and default."""

    name: str
    default: object
    parse: Callable[[str], object]
    help: str
    choices: Optional[tuple] = None
    is_flag: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        # no type: _resolve parses flag and config-file values alike (Opt.parse)
        kind = dict(action="store_const", const="true") if self.is_flag else dict(metavar="V")
        parser.add_argument(
            self.flag, dest=self.name, default=None, help=f"{self.help} (default: {self.default})",
            **kind,
        )


def _common_opts() -> list[Opt]:
    return [
        Opt("out", "out", str, "output directory; created if missing"),
        Opt("label", "field", str, "row label used in report CSVs"),
        Opt("seed", 0, _at_least(0), "random seed for anything stochastic"),
        Opt(
            "verbosity",
            1,
            _at_least(0),
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
    _at_least(0, _parse_float),
    "detrending kernel bandwidth in seconds; 0 picks the default",
)


def _prep_opts() -> list[Opt]:
    return [
        DETREND_OPT,
        TREND_BANDWIDTH_OPT,
        Opt(
            "window",
            600.0,
            _at_least(0, _parse_float),
            "averaging window in seconds before fitting; 0 keeps the "
            "native cadence",
        ),
    ]


def _model_opts(with_b: bool = True) -> list[Opt]:
    opts = [
        Opt("knn", 2, _at_least(1), "nearest neighbors per sensor"),
        Opt("p", 2, _at_least(1), "temporal autoregressive order"),
        Opt("d", 1, _at_least(1), "delay of the functional variable; at most p"),
        Opt("knots", 0, _at_least(0), "spline knot count; 0 picks the default"),
        Opt(
            "bandwidth",
            0.0,
            _at_least(0, _parse_float),
            "kernel bandwidth for the curve refinement; 0 picks the default",
        ),
    ]
    if with_b:
        opts.insert(1, Opt("b", 2, _at_least(1), "neighbor lag depth"))
    return opts


def _sim_opts() -> list[Opt]:
    return [
        Opt("mode", "advective", str, "field type", choices=SIM_MODES),
        Opt("regime", "partly_cloudy", str, "sky condition", choices=REGIMES),
        Opt("nx", 4, _at_least(1), "grid columns; nx * ny >= 3"),
        Opt("ny", 4, _at_least(1), "grid rows"),
        Opt("spacing", 90.0, _positive, "grid spacing in meters"),
        Opt("T", 144, _at_least(2), "number of time steps"),
        Opt("dt", 30.0, _positive, "sample cadence in seconds"),
        Opt("velocity", (3.0, 0.0), _parse_pair, "cloud motion vx,vy in m/s"),
        Opt("corr_length", 120.0, _positive, "spatial correlation length (m)"),
        Opt(
            "diurnal",
            0.0,
            _at_least(0, _parse_float),
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
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text: {exc}") from None
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
            try:
                value = opt.parse(raw)
            except UsageError as exc:
                raise UsageError(f"{opt.flag} {exc}") from None
        if opt.choices is not None and value not in opt.choices:
            raise UsageError(
                f"{opt.flag} must be one of {list(opt.choices)}, got {value!r}"
            )
        resolved[opt.name] = value
    return resolved


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


def _say(cfg: dict, level: int, message: str) -> None:
    if cfg["verbosity"] >= level:
        print(message)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _start_run(cfg: dict, command: str) -> Path:
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "run.json", {"command": command, "version": __version__, "config": cfg})
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


def _score(field: SpatioTemporalField, fit: ModelFit):
    """RMSE, adjusted R^2 and its summary-line text of ``fit`` from its support on.

    The adjusted R^2 is (None, "") when the effective parameter count
    reaches the number of scored cells, so ``fit.json`` gets null and
    ``window_rmse.csv`` an empty cell.
    """
    obs = field.values[:, fit.support :]
    fitted = fit.fitted[:, fit.support :]
    value_rmse = rmse(obs, fitted)
    if not fit.n_params < obs.size:
        return value_rmse, None, ""
    adj = adjusted_r2(obs, fitted, fit.n_params)
    return value_rmse, adj, f" adj_r2={adj:.6g}"


def _fit_fcar_each(field: SpatioTemporalField, cfg: dict) -> ModelFit:
    field.require_complete("per-sensor fcar fitting")
    spec = _temporal_spec(cfg)
    fits = _fit_sensors(
        field.layout.ids, field.values, spec, _fcar_options(cfg), spec.max_lag
    )
    return ModelFit(
        nan_padded(np.stack([f.fitted for f in fits]), field.n_times),
        nan_padded(np.stack([f.residuals for f in fits]), field.n_times),
        spec.max_lag,
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
        float(fit.beta.size) + float(sum(effective_params(f) for f in fit.fcar_fits)),
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
    _check(cfg["nx"] * cfg["ny"] >= 3, "--nx * --ny must be >= 3: a layout needs 3 sensors")
    layout = grid_layout(cfg["ny"], cfg["nx"], cfg["spacing"])
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
    "fit one model and write fitted.csv, residuals.csv and fit.json",
    _common_opts()
    + _io_opts()
    + _prep_opts()
    + [Opt("model", "fcsar", str, "model to fit", choices=FIT_MODELS)]
    + _model_opts(),
)
def cmd_fit(cfg: dict) -> None:
    _check(cfg["d"] <= cfg["p"], f"--d must be <= --p ({cfg['p']}), got {cfg['d']}")
    field = _load_field(cfg)
    model = cfg["model"]
    fit = MODELS[model](field, cfg)
    value_rmse, adj, adj_text = _score(field, fit)

    out_dir = _start_run(cfg, "fit")
    _write_field_csv(
        out_dir / "fitted.csv",
        ["t", "sensor", "observed", "fitted"],
        field,
        fit.support,
        field.values,
        fit.fitted,
    )
    _write_field_csv(
        out_dir / "residuals.csv", ["t", "sensor", "residual"], field, fit.support, fit.residuals
    )
    summary = {
        "model": model,
        "rmse": value_rmse,
        "adj_r2": adj,
        "n_params": fit.n_params,
        "support_start": fit.support,
        "n_sensors": field.n_sensors,
        "n_times": field.n_times,
        **fit.extra,
    }
    _write_json(out_dir / "fit.json", summary)
    _say(cfg, 1, f"{cfg['label']} model={model} rmse={value_rmse:.10g}{adj_text}")


@_register(
    "crossval",
    "leave-k-sensors-out comparison against interpolation",
    _common_opts()
    + _io_opts()
    + _prep_opts()
    + _model_opts()
    + [
        Opt("k", (1,), _list_of(_at_least(1)), "missing-sensor counts, e.g. 1,2,3"),
        Opt("cap", SUBSET_CAP, _at_least(1), "max subsets per k before seeded sampling"),
    ],
)
def cmd_crossval(cfg: dict) -> None:
    _check(cfg["d"] <= cfg["p"], f"--d must be <= --p ({cfg['p']}), got {cfg['d']}")
    field = _load_field(cfg)
    spec = FcsarSpec.uniform(
        build_neighbor_graph(field.layout, cfg["knn"]), cfg["b"], _temporal_spec(cfg)
    )
    options = _fcar_options(cfg)
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
        rows.append((cfg["label"], k, f"{ratio:.10g}"))
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
    out_dir = _start_run(cfg, "crossval")
    _write_csv_rows(out_dir / "rmpe_ratio.csv", ["label", "k", "ratio"], rows)


@_register(
    "diagnose",
    "fit-order separability diagnostic",
    _common_opts()
    + _io_opts()
    + _prep_opts()
    + _model_opts(with_b=False)
    + [Opt("threshold", 1.5, _positive, "order-ratio verdict threshold")],
)
def cmd_diagnose(cfg: dict) -> None:
    _check(cfg["d"] <= cfg["p"], f"--d must be <= --p ({cfg['p']}), got {cfg['d']}")
    field = _load_field(cfg)
    graph = build_neighbor_graph(field.layout, cfg["knn"])
    report = separability_diagnostic(field, graph, _temporal_spec(cfg), _fcar_options(cfg))
    rmses = (report.st_rmse, report.ts_rmse, report.fcsar_b1_rmse, report.fcsar_b2_rmse)
    # the factored orders' RMSE ratio; above --threshold they disagree
    lo, hi = min(report.st_rmse, report.ts_rmse), max(report.st_rmse, report.ts_rmse)
    ratio = float("inf") if lo == 0.0 and hi > 0.0 else (hi / lo if lo > 0 else 1.0)
    verdict = "not supported" if ratio > cfg["threshold"] else "plausible"
    out_dir = _start_run(cfg, "diagnose")
    _write_csv_rows(
        out_dir / "separability.csv",
        ["label", "st_rmse", "ts_rmse", "fcsar_b1_rmse", "fcsar_b2_rmse"],
        [(cfg["label"], *(f"{v:.10g}" for v in rmses))],
    )
    _say(
        cfg,
        1,
        f"{cfg['label']}: st={report.st_rmse:.6g} ts={report.ts_rmse:.6g} "
        f"b1={report.fcsar_b1_rmse:.6g} b2={report.fcsar_b2_rmse:.6g} "
        f"ratio={ratio:.4g} -> separability {verdict}",
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
            _list_of(_positive),
            "averaging windows in seconds, longest first",
        ),
    ]
    + _model_opts(),
)
def cmd_report(cfg: dict) -> None:
    _check(cfg["d"] <= cfg["p"], f"--d must be <= --p ({cfg['p']}), got {cfg['d']}")
    field = _load_field(cfg)
    rows = []
    for window in cfg["windows"]:
        averaged = time_average(field, window)
        window_rmse, adj, adj_text = _score(averaged, MODELS["fcsar"](averaged, cfg))
        adj_cell = None if adj is None else f"{adj:.10g}"
        rows.append((cfg["label"], f"{window:.10g}", f"{window_rmse:.10g}", adj_cell))
        _say(cfg, 1, f"{cfg['label']} window={window:g}s rmse={window_rmse:.6g}{adj_text}")
    out_dir = _start_run(cfg, "report")
    _write_csv_rows(out_dir / "window_rmse.csv", ["label", "window", "rmse", "adj_r2"], rows)


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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and kept:
    parsing reads it and changes nothing in it."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    cfg: dict = {}
    try:
        _, opts, func = COMMANDS[args.command]
        cfg = _resolve(args, opts)
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
