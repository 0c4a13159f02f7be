"""Run a fixed set of CLI commands and print the sha256 of every output file.

Usage::

    python3 tools/fixture_digests.py OUT_DIR [--src DIR] [--against DIR]

The commands simulate one field (``--seed 3 --T 120``) and a raw copy
with a diurnal trend, detrend the raw copy, fit all five models, fit SAR
on the raw copy with ``--detrend``, and run ``crossval``, ``diagnose`` and
``report`` on the field: 12 commands and 39 output files.  They run
in-process through ``skylattice.cli.main`` from inside OUT_DIR with
relative ``--out`` paths, so the ``run.json`` files do not depend on where
OUT_DIR is.  Each command's stdout (its summary lines) is saved as
``stdout/NN.txt``, NN its index in ``COMMANDS``, since some numbers reach
only stdout: 51 files in all.  Output is one ``<sha256>  <path>`` line per
file, sorted by path; diff the output of two checkouts (``--src``, default
the checkout holding this script) to see which files a change moved.

With ``--against DIR`` the commands run twice, each in a fresh interpreter:
on DIR's ``src/`` into ``OUT_DIR/against`` and on ``--src`` into
``OUT_DIR/src``.  Instead of digests, the output is one line per file that
differs, sorted by path, with the largest absolute and relative difference
of its numbers and how many of them moved; identical outputs print nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import re
import subprocess
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

# a number in CSV or JSON text; what lies between numbers must match exactly
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def output_files(root: Path) -> list[str]:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


def compare_text(old: str, new: str) -> str:
    """How ``new`` differs from ``old``: the largest absolute and relative
    difference of their numbers, or that the text between numbers moved."""
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    if len(a) != len(b) or a[::2] != b[::2]:
        return "text differs"
    max_abs = max_rel = 0.0
    moved = 0
    for x, y in zip(map(float, a[1::2]), map(float, b[1::2])):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        moved += 1
        diff = abs(x - y)
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / max(abs(x), abs(y)))
    return f"max_abs {max_abs:.3g}  max_rel {max_rel:.3g}  ({moved} of {len(a) // 2} numbers)"


def compare_trees(old: Path, new: Path) -> list[str]:
    """One ``<path>  <difference>`` line per file that differs, by path."""
    old_files, new_files = output_files(old), output_files(new)
    lines = []
    for name in sorted(set(old_files) | set(new_files)):
        if name not in new_files or name not in old_files:
            lines.append(f"{name}  only in {'against' if name in old_files else 'src'}")
            continue
        a, b = (old / name).read_bytes(), (new / name).read_bytes()
        if a != b:
            lines.append(f"{name}  {compare_text(a.decode(), b.decode())}")
    return lines


def run_in_cwd(cli_main) -> int:
    """Run ``COMMANDS`` through ``cli_main`` in the working directory, saving
    each one's stdout as ``stdout/NN.txt``; stop at the first that fails,
    name it on stderr and return 1."""
    Path("stdout").mkdir(exist_ok=True)
    for index, argv in enumerate(COMMANDS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(argv))
        if code != 0:
            print(f"command failed with exit {code}: {' '.join(argv)}", file=sys.stderr)
            return 1
        Path("stdout", f"{index:02d}.txt").write_text(out.getvalue(), encoding="utf-8")
    return 0


def run_commands(out_dir: Path, src: Path) -> int:
    """Run the commands inside ``out_dir`` on ``src``'s package and print
    the digests; the working directory and ``sys.path`` are restored on
    return.  A package already imported stays in ``sys.modules``, so a
    second call in one process runs the first call's package, whatever
    its ``src``: ``--against`` runs each side in a fresh interpreter."""
    cwd, path = os.getcwd(), list(sys.path)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        sys.path.insert(0, str(src.resolve() / "src"))
        from skylattice.cli import main as cli_main

        os.chdir(out_dir)
        if run_in_cwd(cli_main) != 0:
            return 1
        for name in output_files(Path(".")):
            print(f"{hashlib.sha256(Path(name).read_bytes()).hexdigest()}  {name}")
        return 0
    finally:
        os.chdir(cwd)
        sys.path[:] = path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory for the outputs")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ is run (default: this one)",
    )
    parser.add_argument(
        "--against", type=Path, help="compare with the outputs of this checkout's src/"
    )
    args = parser.parse_args()
    if args.against is None:
        return run_commands(args.out_dir, args.src)
    sides = {"against": args.against, "src": args.src}
    for side, src in sides.items():
        proc = subprocess.run(
            [sys.executable, __file__, str(args.out_dir / side), "--src", str(src.resolve())],
            stdout=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            return proc.returncode
    for line in compare_trees(args.out_dir / "against", args.out_dir / "src"):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
