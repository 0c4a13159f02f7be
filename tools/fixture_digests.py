"""Run a fixed set of CLI commands and print the sha256 of every output file.

Usage::

    python3 tools/fixture_digests.py OUT_DIR [--src DIR]

The commands simulate one field (``--seed 3 --T 120``) and a raw copy
with a diurnal trend, detrend the raw copy, fit all five models, fit SAR
on the raw copy with ``--detrend``, and run ``crossval``, ``diagnose`` and
``report`` on the field: 12 commands and 39 files.  They run in-process
through ``skylattice.cli.main`` from inside OUT_DIR with relative
``--out`` paths, so the ``run.json`` files do not depend on where OUT_DIR
is.  Output is one ``<sha256>  <path>`` line per file, sorted by path;
diff the output of two checkouts (``--src``, default the checkout holding
this script) to see which files a change moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

FIELD = ("--measurements", "sim/measurements.csv", "--layout", "sim/layout.csv")
RAW = ("--measurements", "sim-raw/measurements.csv", "--layout", "sim-raw/layout.csv")
MODELS = ("fcar", "fcsar", "sar", "separable-st", "separable-ts")
COMMANDS = (
    ("simulate", "--seed", "3", "--T", "120", "--out", "sim"),
    ("simulate", "--seed", "3", "--T", "120", "--diurnal", "60", "--out", "sim-raw"),
    ("detrend", *RAW, "--out", "detrend"),
    *(("fit", *FIELD, "--model", m, "--window", "0", "--out", f"fit-{m}") for m in MODELS),
    ("fit", *RAW, "--model", "sar", "--detrend", "--window", "0", "--out", "fit-sar-raw"),
    ("crossval", *FIELD, "--k", "1", "--window", "0", "--out", "crossval"),
    ("diagnose", *FIELD, "--window", "0", "--out", "diag"),
    ("report", *FIELD, "--windows", "60,30", "--out", "report"),
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory for the outputs")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ is run (default: this one)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve() / "src"))
    from skylattice.cli import main as cli_main

    args.out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.out_dir)
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(list(argv))
        if code != 0:
            print(f"command failed with exit {code}: {' '.join(argv)}", file=sys.stderr)
            return 1
    for name in sorted(p.as_posix() for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
