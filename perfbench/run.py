"""skylattice benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload fit_long --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  Set-up generates the workload's input
CSVs in fresh interpreters (timed, several times); the timed section then
drives ``skylattice.cli.main(argv)`` in this process, one command after
another (a closed loop with one client), after one warm-up pass, until
``--seconds`` would be exceeded.  A fixed reference computation runs in
the gap after every command and gauges the machine's speed, so command
times can be scaled to a fixed speed (see calibration.py).  Every
command's outputs are checked.  With ``--trace 1`` the run alternates
untraced and traced passes and reports per-layer metrics from spans
recorded around the package's public functions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A longer record,
with run metadata, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S, gap
from tracing import Tracer, metric_names as layer_metric_names
from workloads import ROOT, SIZES, SRC, WORKLOADS, Workload, input_set, workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
SETUP_TIMEOUT_S = 120
DECOMPOSITION_TOL = 1e-12
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "scaled_wall_s": "s",
    "scaled_sensor_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "answer_ratio": "ratio",
}
TRACE_UNITS = {
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_scaled_s": "s",
    "trace.traced_scaled_s": "s",
    "trace.overhead_s": "s",
}


class CheckFailed(Exception):
    """A command's outputs broke the contract the benchmark checks."""


def layer_units() -> dict[str, str]:
    units = {}
    for name in layer_metric_names():
        stat = name.rsplit(".", 1)[1]
        units[name] = {"calls": "count", "busy_s": "s", "self_s": "s"}.get(stat, "ratio")
    units.update(TRACE_UNITS)
    return units


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _tree_digest(path: Path, pattern: str = "*") -> str:
    """sha256 over the relative names and bytes of the files under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob(pattern) if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def metadata() -> dict:
    """Machine, library versions and source identity every result carries."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC / "skylattice"),
    }


# ----------------------------------------------------------------- checks


def check_fit(out: Path) -> float:
    """Check fit outputs; returns the rmse fit.json reports.

    fitted.csv and residuals.csv must list the same (t, sensor) rows, one
    per sensor and time step of the support, with observed - fitted equal
    to the residual to 1e-12 (relative to the observed value when that
    exceeds 1), and fit.json's rmse must match the residuals.
    """
    summary = json.loads((out / "fit.json").read_text())
    expected_rows = summary["n_sensors"] * (summary["n_times"] - summary["support_start"])
    n, sq = 0, 0.0
    with open(out / "fitted.csv", newline="") as ff, open(out / "residuals.csv", newline="") as fr:
        fitted, resid = csv.reader(ff), csv.reader(fr)
        if next(fitted, None) != ["t", "sensor", "observed", "fitted"]:
            raise CheckFailed("fitted.csv header")
        if next(resid, None) != ["t", "sensor", "residual"]:
            raise CheckFailed("residuals.csv header")
        for a, b in itertools.zip_longest(fitted, resid):
            if a is None or b is None:
                raise CheckFailed("fitted.csv and residuals.csv row counts differ")
            if a[:2] != b[:2]:
                raise CheckFailed(f"row {n + 2}: keys {a[:2]} and {b[:2]} differ")
            obs, fit, res = float(a[2]), float(a[3]), float(b[2])
            if abs(obs - fit - res) > DECOMPOSITION_TOL * max(1.0, abs(obs)):
                raise CheckFailed(f"row {n + 2}: observed - fitted != residual")
            n += 1
            sq += res * res
    if n != expected_rows:
        raise CheckFailed(f"{n} output rows, expected {expected_rows}")
    rmse = summary["rmse"]
    if not math.isclose(math.sqrt(sq / n), rmse, rel_tol=1e-9):
        raise CheckFailed("fit.json rmse does not match the residuals")
    return rmse


def check_crossval(out: Path) -> float:
    """Check rmpe_ratio.csv holds one finite positive k=1 ratio; returns it."""
    with open(out / "rmpe_ratio.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["label", "k", "ratio"]] or len(rows) != 2 or rows[1][1] != "1":
        raise CheckFailed(f"unexpected rmpe_ratio.csv rows {rows}")
    ratio = float(rows[1][2])
    if not (math.isfinite(ratio) and ratio > 0):
        raise CheckFailed(f"rmpe ratio {ratio} is not finite and positive")
    return ratio


CHECKS = {"fit": check_fit, "crossval": check_crossval}


# ----------------------------------------------------------------- phases


def set_up(wl: Workload, iset: int, size: str, work: Path, problems: list):
    """Generate the inputs SETUP_REPS times in fresh interpreters.

    Returns (set-up times, inputs directory, commands attempted, failed).
    Every repetition must write byte-identical input CSVs (run.json
    differs, as it records the output directory).
    """
    times, attempted, failed = [], 0, 0
    first = work / "inputs0"
    for rep in range(SETUP_REPS):
        dest = work / f"inputs{rep}"
        argv = [sys.executable, str(HERE / "workloads.py"), wl.name, str(iset), str(dest), "--size", size]
        t0 = perf_counter()
        try:
            rc = subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = None
        times.append(perf_counter() - t0)
        attempted += len(wl.fields)
        if rc != 0:
            failed += len(wl.fields)
            problems.append(f"set-up {rep} exited with {rc}")
        elif rep and _tree_digest(dest, "*.csv") != _tree_digest(first, "*.csv"):
            failed += len(wl.fields)
            problems.append(f"set-up {rep} wrote different inputs than set-up 0")
        if rep:
            shutil.rmtree(dest, ignore_errors=True)
    return times, first, attempted, failed


def run_pass(cli, wl: Workload, inputs: Path, out: Path, tracer=None, gap_s=None) -> list[dict]:
    """Run the workload's command once per field; time each command.

    With ``gap_s`` (the time of the reference computation just before the
    pass), the reference computation runs again after every command, and
    each command records the gaps on both sides of it and its wall time
    scaled by them.
    """
    shutil.rmtree(out, ignore_errors=True)
    commands = []
    for field in wl.fields:
        argv = [
            *wl.command,
            "--measurements", str(inputs / field.name / "measurements.csv"),
            "--layout", str(inputs / field.name / "layout.csv"),
            "--out", str(out / field.name),
            "--verbosity", "0",
        ]
        if tracer is not None:
            tracer.request += 1
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        cmd = {"field": field.name, "rc": rc, "wall_s": perf_counter() - t0}
        if gap_s is not None:
            cmd["gap_before_s"], gap_s = gap_s, gap()
            cmd["gap_after_s"] = gap_s
            cmd["scaled_s"] = cmd["wall_s"] * REFERENCE_S / ((cmd["gap_before_s"] + gap_s) / 2)
        commands.append(cmd)
    return commands


def check_pass(wl: Workload, out: Path, commands: list[dict], reference: list, rel_tol: float,
               digests: dict, problems: list) -> None:
    """Check each command's outputs; sets ok, answer and digest in place.

    ``digests`` maps field to the first pass's output digest: every later
    pass, traced or not, must write byte-identical files.  ``reference``
    holds the recorded answer per field (None skips that comparison).
    """
    for i, cmd in enumerate(commands):
        field_out = out / cmd["field"]
        cmd["ok"], cmd["answer"] = False, None
        try:
            if cmd["rc"] != 0:
                raise CheckFailed(f"exit code {cmd['rc']}")
            cmd["answer"] = CHECKS[wl.kind](field_out)
            if reference is not None and not math.isclose(cmd["answer"], reference[i], rel_tol=rel_tol):
                raise CheckFailed(f"answer {cmd['answer']!r} differs from the reference {reference[i]!r}")
            cmd["digest"] = _tree_digest(field_out)
            if digests.setdefault(cmd["field"], cmd["digest"]) != cmd["digest"]:
                raise CheckFailed("outputs differ from the first pass")
            cmd["ok"] = True
        except (CheckFailed, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            problems.append(f"{wl.name}/{cmd['field']}: {exc}")


def timed_loop(cli, wl: Workload, inputs: Path, work: Path, seconds: float, trace: bool,
               reference, rel_tol: float, problems: list):
    """Run a warm-up pass, then timed passes until the next would end
    after ``seconds`` (warm-up included).

    The warm-up pass fills lazy imports and library caches; it is checked
    but not timed.  With ``trace``, untraced and traced passes alternate
    in pairs, and at least one pair runs.  A pass with a failed command
    ends the loop, as later timings would mean nothing.  Returns
    (warm-up commands, passes, tracer or None).
    """
    tracer = Tracer() if trace else None
    passes, digests = [], {}
    out = work / "out"
    start = perf_counter()
    warmup = run_pass(cli, wl, inputs, out)
    check_pass(wl, out, warmup, reference, rel_tol, digests, problems)
    gap_s = gap()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = perf_counter()
        first_span = len(tracer.spans) if tracer else 0
        with tracer if traced else nullcontext():
            commands = run_pass(cli, wl, inputs, out, tracer if traced else None, gap_s)
        gap_s = commands[-1]["gap_after_s"]
        check_pass(wl, out, commands, reference, rel_tol, digests, problems)
        record = {
            "traced": traced,
            "wall_s": sum(c["wall_s"] for c in commands),
            "scaled_s": sum(c["scaled_s"] for c in commands),
            "gap_s": statistics.fmean(c["gap_after_s"] for c in commands),
            "commands": commands,
        }
        if traced:
            record["layers"] = tracer.metrics(first_span)
        record["cost_s"] = perf_counter() - t0
        passes.append(record)
        if trace and len(passes) % 2:
            continue
        if not all(c["ok"] for c in warmup + [c for p in passes for c in p["commands"]]):
            return warmup, passes, tracer
        step = statistics.median(p["cost_s"] for p in passes) * (2 if trace else 1)
        if perf_counter() - start + step > seconds:
            return warmup, passes, tracer


def end_to_end(wl: Workload, setup_times, warmup, passes, reference) -> dict[str, float]:
    # The mean scaled pass: each command's wall time at the reference
    # machine speed, summed over the pass and averaged over the passes.
    # On a shared machine it varied much less from run to run than any
    # estimator of the raw wall time (see perfbench/README.md).
    scaled = statistics.fmean(p["scaled_s"] for p in passes)
    answers = [c["answer"] for c in warmup]
    if None in answers:
        answer_ratio = 0.0  # nothing to compare; the run is marked incorrect
    else:
        answer_ratio = statistics.fmean(answers) / statistics.fmean(reference)
    return {
        "setup_s": statistics.median(setup_times),
        "scaled_wall_s": scaled,
        "scaled_sensor_steps_per_s": wl.sensor_steps / scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answer_ratio": answer_ratio,
    }


def per_layer(passes, tracer: Tracer) -> dict[str, float]:
    """Per-pass means of the traced passes' layer metrics, plus overhead."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {
        name: statistics.fmean(p["layers"][name] for p in traced)
        for name in layer_metric_names()
    }
    out.update(tracer.ratios())
    out["trace.untraced_wall_s"] = statistics.fmean(p["wall_s"] for p in untraced)
    out["trace.traced_wall_s"] = statistics.fmean(p["wall_s"] for p in traced)
    out["trace.untraced_scaled_s"] = statistics.fmean(p["scaled_s"] for p in untraced)
    out["trace.traced_scaled_s"] = statistics.fmean(p["scaled_s"] for p in traced)
    out["trace.overhead_s"] = out["trace.traced_scaled_s"] - out["trace.untraced_scaled_s"]
    return out


def load_reference(size: str, workload: str, iset: int):
    """(answers per field, relative tolerance) recorded for one input set."""
    data = json.loads(REFERENCE.read_text())
    return data["answers"][size][workload][str(iset)], data["rel_tol"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", choices=SIZES, default="full",
        help="input size; 'tiny' is for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skylattice" / "cli.py").is_file():
        print(f"perfbench: no skylattice sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    wl = workloads(args.size)[args.workload]
    iset = input_set(args.seed)
    try:
        reference, rel_tol = load_reference(args.size, wl.name, iset)
    except (OSError, KeyError, ValueError) as exc:
        print(f"perfbench: no reference answers for input set {iset}: {exc!r}", file=sys.stderr)
        return 2

    tag = f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / tag
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problems: list[str] = []
    try:
        setup_times, inputs, attempted, failed = set_up(wl, iset, args.size, work, problems)
        sys.path.insert(0, str(SRC))
        import skylattice.cli as cli

        warmup, passes, tracer = timed_loop(
            cli, wl, inputs, work, args.seconds, bool(args.trace), reference, rel_tol, problems
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = warmup + [c for p in passes for c in p["commands"]]
    attempted += len(commands)
    failed += sum(not c["ok"] for c in commands)
    if args.trace:
        values = per_layer(passes, tracer)
        units = layer_units()
        tracer.write(results / f"{tag}.spans.csv")
    else:
        values = end_to_end(wl, setup_times, warmup, passes, reference)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record = {
        "workload": wl.name,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": {**metadata(), "seed": args.seed, "input_set": iset},
        "setup_s": setup_times,
        "reference_gap_s": REFERENCE_S,
        "warmup": warmup,
        "passes": passes,
        "reference": reference,
        "problems": problems,
        "metrics": metrics,
    }
    record_path = results / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    walls = ", ".join(
        f"{p['wall_s']:.3f}/{p['scaled_s']:.3f}{'T' if p['traced'] else ''}" for p in passes
    )
    print(f"{wl.name} seed {args.seed} (input set {iset}): passes wall/scaled [{walls}] s")
    print(f"result file: {record_path}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
