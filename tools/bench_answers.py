"""Replay every benchmark input set and print the answers that moved.

Usage::

    python3 tools/bench_answers.py [--src DIR] [--list | --against DIR]

For each size, workload and input set of ``perfbench/``, the inputs are
simulated and the workload's command runs once per field, in-process,
through ``perfbench/run.py``'s ``run_pass`` and ``check_pass``, as a
benchmark run's warm-up pass does.  ``--src`` names the checkout whose
``src/`` and ``perfbench/`` run (default: the one holding this script).
Output is one line per failed check, an answer outside
``reference.json``'s ``rel_tol`` included; nothing prints when every
answer matches.  Work files go to a temporary directory and no bytecode
is written, so ``perfbench/`` is only read (``perfbench/reference.py``
would re-record the reference instead).  ``--list`` prints every answer,
one ``<size> <workload> <input set> <field> <repr>`` line each, and the
failed checks on stderr.

With ``--against DIR`` both checkouts are replayed with ``--list``, each
in a fresh interpreter, and the output is one ``<key>  <DIR's answer> ->
<this answer>`` line per answer that differs at all, sorted by key;
identical answers print nothing; neither side's failed checks print.
A replay takes about ten seconds per checkout on 2 vCPU.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def replay(src: Path) -> tuple[dict[str, object], list[str]]:
    """Every answer of ``src``'s benchmark by ``<size> <workload> <input
    set> <field>``, and the failed checks, each led by its input set."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src / "perfbench"), str(src / "src")]
    import run
    import skylattice.cli as cli
    from workloads import POOL, SIZES, workloads, write_inputs

    data = json.loads(run.REFERENCE.read_text())
    answers, problems = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp, "inputs"), Path(tmp, "out")
        for size in SIZES:
            for wl in workloads(size).values():
                for iset in range(POOL):
                    tag = f"{size} {wl.name} {iset}"
                    shutil.rmtree(inputs, ignore_errors=True)
                    if write_inputs(cli.main, wl, iset, inputs):
                        problems.append(f"{size} set {iset}: simulate failed for {wl.name}")
                        continue
                    found = []
                    commands = run.run_pass(cli, wl, inputs, out)
                    reference = data["answers"][size][wl.name][str(iset)]
                    run.check_pass(wl, out, commands, reference, data["rel_tol"], {}, found)
                    problems += [f"{size} set {iset}: {problem}" for problem in found]
                    for cmd in commands:
                        answers[f"{tag} {cmd['field']}"] = cmd["answer"]
    return answers, problems


def listed(src: Path) -> dict[str, str]:
    """The answers ``--list`` prints for ``src``, from a fresh interpreter;
    its failed checks are dropped, and a replay that fails exits."""
    proc = subprocess.run(
        [sys.executable, __file__, "--list", "--src", str(src)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(proc.stderr)
    return dict(line.rsplit(" ", 1) for line in proc.stdout.splitlines())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="checkout whose src/ and perfbench/ run (default: this one)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="print every answer")
    mode.add_argument("--against", type=Path, help="compare with this checkout's answers")
    args = parser.parse_args()
    src = args.src.resolve()
    if args.against is not None:
        old, new = listed(args.against.resolve()), listed(src)
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                print(f"{key}  {old.get(key, 'missing')} -> {new.get(key, 'missing')}")
        return 0
    answers, problems = replay(src)
    if args.list:
        for key, answer in answers.items():
            print(f"{key} {answer!r}")
        print("\n".join(problems), file=sys.stderr, end="\n" if problems else "")
        return 0
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
