"""Record the reference answers the benchmark checks every run against.

    python3 perfbench/reference.py

For each size, workload and input set, this generates the inputs, runs
one pass with the same output checks as a benchmark run (minus the
reference comparison) and stores the per-field answers in
``perfbench/reference.json``: fit.json's rmse for fit workloads, the
rmpe_ratio.csv ratio for crossval.  Re-record only when a change is meant
to alter the answers.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, WORK, check_pass, metadata, run_pass
from workloads import POOL, SIZES, SRC, workloads, write_inputs

REL_TOL = 1e-6


def main() -> int:
    sys.path.insert(0, str(SRC))
    import skylattice.cli as cli

    data = {"answers": {}}
    work = WORK / "reference"
    problems: list[str] = []
    for size in SIZES:
        answers = data["answers"].setdefault(size, {})
        for wl in workloads(size).values():
            for iset in range(POOL):
                shutil.rmtree(work, ignore_errors=True)
                failed = write_inputs(cli.main, wl, iset, work / "inputs")
                commands = run_pass(cli, wl, work / "inputs", work / "out")
                check_pass(wl, work / "out", commands, None, REL_TOL, {}, problems)
                if failed or problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                answers.setdefault(wl.name, {})[str(iset)] = [c["answer"] for c in commands]
                print(f"{size} {wl.name} {iset}: {answers[wl.name][str(iset)]}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    data["rel_tol"] = REL_TOL
    data["recorded_with"] = metadata()
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
