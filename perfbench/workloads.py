"""Workload definitions shared by run.py and its set-up step.

Run as a script, this module is the set-up step of one benchmark run: it
imports the package, writes one workload's input CSVs with
``skylattice simulate`` and exits, so run.py can time set-up from
interpreter start to written inputs:

    python3 perfbench/workloads.py WORKLOAD INPUT_SET OUT_DIR [--size tiny]

run.py maps its ``--seed`` to an input set (``seed % POOL``); every
input set has recorded answers in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The workload seed picks one of POOL input sets, so every run's answers
# can be checked against a recorded reference.
POOL = 16


@dataclass(frozen=True)
class Field:
    """One generated input field: a directory name and simulate options."""

    name: str
    simulate: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    """Inputs, the CLI command run on each field, and how to check it.

    ``kind`` is "fit" (outputs fitted.csv, residuals.csv and fit.json) or
    "crossval" (outputs rmpe_ratio.csv).  One pass runs ``command`` once
    per field, one after another.
    """

    name: str
    kind: str
    command: tuple[str, ...]
    fields: tuple[Field, ...]
    n_sensors: int
    n_times: int

    @property
    def sensor_steps(self) -> int:
        """Input sensors x time steps one pass processes."""
        return self.n_sensors * self.n_times * len(self.fields)


# (grid side, T) per workload and size; "tiny" is for the self-tests
_SIZES = {
    "full": {"fit_long": (4, 480), "crossval_loo": (4, 144), "sar_long": (4, 360)},
    "tiny": {"fit_long": (3, 160), "crossval_loo": (3, 120), "sar_long": (3, 160)},
}
SIZES = tuple(_SIZES)
REGIMES = ("clear", "partly_cloudy", "overcast")
DIURNAL_AMPLITUDE = "600"


def _grid(side: int, T: int) -> tuple[str, ...]:
    return ("--nx", str(side), "--ny", str(side), "--T", str(T), "--dt", "30")


def workloads(size: str = "full") -> dict[str, Workload]:
    """The benchmark's workloads at one input size, by name."""
    sizes = _SIZES[size]
    side, T = sizes["fit_long"]
    fit_long = Workload(
        name="fit_long",
        kind="fit",
        command=("fit", "--model", "fcsar", "--window", "0"),
        fields=(Field("field", _grid(side, T)),),
        n_sensors=side * side,
        n_times=T,
    )
    side, T = sizes["crossval_loo"]
    crossval_loo = Workload(
        name="crossval_loo",
        kind="crossval",
        command=("crossval", "--k", "1", "--window", "60"),
        fields=tuple(
            Field(regime, _grid(side, T) + ("--regime", regime)) for regime in REGIMES
        ),
        n_sensors=side * side,
        n_times=T,
    )
    side, T = sizes["sar_long"]
    sar_long = Workload(
        name="sar_long",
        kind="fit",
        command=("fit", "--model", "sar", "--detrend", "--window", "0"),
        fields=(Field("field", _grid(side, T) + ("--diurnal", DIURNAL_AMPLITUDE)),),
        n_sensors=side * side,
        n_times=T,
    )
    return {w.name: w for w in (fit_long, crossval_loo, sar_long)}


WORKLOADS = tuple(workloads())


def input_set(seed: int) -> int:
    """The input set a workload seed selects."""
    return seed % POOL


def write_inputs(cli_main, wl: Workload, input_set: int, out_dir: Path) -> int:
    """Simulate every field of ``wl``; returns the number of failed commands."""
    failed = 0
    for field in wl.fields:
        argv = [
            "simulate",
            "--out", str(out_dir / field.name),
            "--seed", str(input_set),
            "--verbosity", "0",
            *field.simulate,
        ]
        if cli_main(argv) != 0:
            failed += 1
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("input_set", type=int)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from skylattice.cli import main as cli_main

    wl = workloads(args.size)[args.workload]
    return 1 if write_inputs(cli_main, wl, args.input_set, args.out_dir) else 0


if __name__ == "__main__":
    sys.exit(main())
