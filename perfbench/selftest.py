"""Self-tests of the benchmark, on tiny inputs.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at ``--size tiny`` and checks the
result line against BENCHMARK.json: every metric is emitted with its
unit, set-up and timings are positive, traced self times sum to no more
than the traced wall time, and traced passes wrote the same bytes as
untraced ones.  It also checks that the run refuses a directory without
the package sources, and that the tracer patches every binding of a
function.  The file is not named test_*.py, so the package's pytest run
does not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5
TIMEOUT_S = 170


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_workload(workload: str, trace: int) -> None:
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared, set(emitted) ^ set(declared)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    record_line = next(line for line in lines if line.startswith("result file: "))
    record = json.loads(Path(record_line.split(": ", 1)[1]).read_text())
    function_self = sum(
        v for name, v in values.items() if name.endswith(".self_s") and name.count(".") == 2
    )
    assert 0 < function_self <= values["trace.traced_wall_s"], function_self
    assert values["cli.main.calls"] == len(record["passes"][1]["commands"])
    untraced, traced = {}, {}
    for p in record["passes"]:
        for c in p["commands"]:
            (traced if p["traced"] else untraced).setdefault(c["field"], set()).add(c["digest"])
    assert traced and traced == untraced and all(len(d) == 1 for d in traced.values())


def check_bare_directory() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def check_tracer_bindings() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import skylattice.cli
    import skylattice.evaluation
    import skylattice.fcar
    import skylattice.fcsar
    from tracing import Tracer

    bindings = [
        (skylattice.fcsar, "fit_fcar"),
        (skylattice.fcar, "fit_fcar"),
        (skylattice.evaluation, "fit_fcsar"),
        (skylattice.cli, "fit_fcsar"),
        (skylattice.fcsar, "fit_fcsar"),
    ]
    before = [getattr(m, n) for m, n in bindings]
    with Tracer():
        wrapped = [getattr(m, n) for m, n in bindings]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert wrapped[0] is wrapped[1] and wrapped[2] is wrapped[3] is wrapped[4]
    assert [getattr(m, n) for m, n in bindings] == before


def main() -> int:
    checks = [(f"{w['name']} trace={t}", check_workload, (w["name"], t))
              for w in SPEC["workloads"] for t in (0, 1)]
    checks += [("bare directory", check_bare_directory, ()),
               ("tracer bindings", check_tracer_bindings, ())]
    failures = 0
    for label, fn, args in checks:
        try:
            fn(*args)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
