"""Self-test of the benchmark at smoke size; takes well under a minute.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Runs every workload untraced and twice traced on tiny inputs and checks
that each BENCHMARK.json metric is reported with its unit, that no
operation fails, and that the exact counts repeat between two runs of one
seed.  It also checks that the tracer restores every wrapped attribute when
an operation raises, and that the benchmark refuses to run without
``src/degspan``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def run_bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def result_of(workload: str, trace: int) -> dict:
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
    return result


def check_units(result: dict, spec: list[dict]) -> None:
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in spec}


def test_workloads_at_smoke_size() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        untraced = result_of(workload, 0)
        check_units(untraced, SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in untraced["metrics"].values())
        first, second = result_of(workload, 1), result_of(workload, 1)
        check_units(first, SPEC["per_layer"])
        counts = [
            {n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"}
            for r in (first, second)
        ]
        assert counts[0] == counts[1], counts


def test_tracer_restores_attributes_when_an_operation_raises() -> None:
    sys.path.insert(0, str(BENCH))
    import inputs

    inputs.import_degspan()
    import degspan.solver
    import tracing

    before = tracing.bindings()
    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer):
            assert tracing.bindings() != before
            tracer.op(degspan.solver.orient_forest, None, 0, 1)
    except AttributeError:
        pass
    else:
        raise AssertionError("the failing operation did not raise")
    assert all(a is b for a, b in zip(before, tracing.bindings()))


def test_refuses_to_run_without_sources() -> None:
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns(".work"))
        proc = run_bench("sweep-solve", 0, Path(tmp))
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
