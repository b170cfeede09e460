"""Run one degspan benchmark workload and print its metrics.

    python3 bench/run.py --workload cli-oneshot --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``cli-oneshot``: ``degspan check`` then ``degspan solve`` on one graph
  file, in process; file to verdict, where parsing dominates.
* ``sweep-solve``: ``find_spanning_tree`` + ``verify_tree`` on host graphs
  parsed once at set-up; the exchange loop does nearly all the work.
* ``oracle-agree``: solver, witness check and exhaustive oracle on small
  graphs off the bound and on the extremal family; they must agree.

One caller, one operation at a time (a closed loop without threads).  The
operations of a workload form a fixed pass; the run repeats whole passes
until the next one would overrun ``--seconds``, so every run measures the
same mix.  Inputs are generated beforehand in a child process.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs an
untraced half and a traced half of the same passes and reports per-layer
metrics: self time per operation of each wrapped function (``*_s``), counts
per pass, and the tracing overhead.  The traced half must reproduce the
untraced outputs and its counts must repeat exactly from pass to pass.

Every output passes an independent gate (see workloads.py); a miss counts
as failed.  The last line of standard output is the JSON result; the lines
before it give the environment, each metric with its unit, and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import inputs

IMPORT_REPS = 15
SETUP_REPS = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import {module}; print(time.perf_counter() - t)"
)


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="degspan benchmark (one workload, one run)")
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=inputs.SIZES, default="full",
                   help="input sizes; 'smoke' is a seconds-long check of the benchmark itself")
    return p.parse_args(argv)


def commit_of(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median_import_s(module: str) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(module=module), str(inputs.SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def pin(cpus) -> None:
    """Restrict this process to ``cpus`` where the platform allows it."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


class Phase:
    """Operation times, output digests and counts of one series of passes."""

    def __init__(self) -> None:
        self.item_ns: dict[int, list[int]] = {}  # every time of each item
        self.keys: list[tuple[int, str | None]] = []  # (item, output digest) per op
        self.pass_digests: list[list[str | None]] = []
        self.pass_counts: list[dict[str, int]] = []
        self.errors: list[str] = []


def run_item(w, i: int, phase: Phase, pending: dict, digests: list, counts: Counter,
             tracer=None) -> None:
    """Time one operation on item ``i`` and keep its output for the gate.

    Outputs not yet seen for an item are kept in ``pending``.
    """
    try:
        if tracer is None:
            t0 = perf_counter_ns()
            outcome = w.run(i)
            elapsed = perf_counter_ns() - t0
        else:
            elapsed, outcome = tracer.op(w.run, i)
    except Exception:
        phase.errors.append(f"item {i}: {traceback.format_exc()}")
        digests.append(None)
        phase.keys.append((i, None))
        return
    phase.item_ns.setdefault(i, []).append(elapsed)
    key = (i, w.digest(outcome))
    pending.setdefault(key, outcome)
    digests.append(key[1])
    phase.keys.append(key)
    counts.update(w.tally(i, outcome))


def run_phase(w, budget_s: float, min_passes: int, pending: dict, tracer=None) -> Phase:
    """Whole passes over the timed items until the next would overrun ``budget_s``."""
    phase = Phase()
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    while True:
        # Alternate CPUs from pass to pass: a neighbour busy on one of them
        # then slows only some of each item's repetitions.
        pin({cpus[len(phase.pass_digests) % len(cpus)]})
        gc.collect()
        digests: list[str | None] = []
        counts: Counter = Counter()
        for i in w.timed:
            run_item(w, i, phase, pending, digests, counts, tracer)
        if tracer is not None:
            counts.update(tracer.take_counts())
        phase.pass_digests.append(digests)
        phase.pass_counts.append(dict(counts))
        done = len(phase.pass_digests)
        elapsed_s = perf_counter() - start
        if done >= min_passes and elapsed_s * (done + 1) / done > budget_s:
            pin(cpus)
            return phase


def run_once(w, pending: dict) -> Phase:
    """The items checked once per run, outside the timed passes."""
    phase = Phase()
    for i in w.once:
        run_item(w, i, phase, pending, [], Counter())
    return phase


def gate_all(w, pending: dict) -> dict:
    """Gate verdict (None or a reason) for every distinct output."""
    verdicts = {}
    for key in sorted(pending, key=lambda k: k[0]):
        try:
            verdicts[key] = w.gate(key[0], pending[key])
        except Exception:
            verdicts[key] = f"gate raised: {traceback.format_exc()}"
    return verdicts


def best_ns(phase: Phase) -> list[int]:
    """Each item's fastest time in the phase.

    On a shared host, other tenants can slow a process by up to 2x for tens
    of seconds at a time, in CPU time as well as wall time, so a median over
    raw samples moves with the neighbours.  Items repeat in every pass,
    spread over the run; the fastest repetition is the least disturbed one,
    and the operation metrics summarize those per-item times.
    """
    return [min(times) for times in phase.item_ns.values()]


def tail(samples_ns: list[int]) -> tuple[float, float, int]:
    """(ms, percentile, samples) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(samples_ns)
    count = len(ordered)
    index = max(count - 11, 0) if count > 10 else count - 1
    return ordered[index] / 1e6, 100.0 * (index + 1) / count, count


def end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    samples = best_ns(phase)
    return {
        "op_p50_ms": (statistics.median(samples) / 1e6, "ms"),
        "op_tail_ms": (tail(samples)[0], "ms"),
        "ops_per_s": (len(samples) / (sum(samples) / 1e9), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Per-layer self time per operation: metric name -> span name.
LAYER_TIMES = {
    "graph.parse_s": "graph.parse",
    "graph.from_edges_s": "graph.from_edges",
    "graph.min_pair_scan_s": "graph.min_pair_scan",
    "condition.check_s": "condition.check",
    "solver.orient_s": "solver.orient",
    "solver.foreign_scan_s": "solver.foreign_scan",
    "solver.apply_s": "solver.apply",
    "solver.cut_sets_s": "solver.cut_sets",
    "solver.self_s": "solver.find",
    "solver.verify_s": "solver.verify",
    "solver.witness_s": "solver.witness",
    "solver.validate_witness_s": "solver.validate_witness",
    "tree.build_s": "tree.build",
    "sequences.realize_s": "sequences.realize",
    "oracle.count_s": "oracle.count",
    "extremal.build_s": "extremal.build",
    "cli.self_s": "cli",
    "trace.unattributed_s": "trace.unattributed",
}
EXCHANGE_STEPS = ("solver.orient", "solver.foreign_scan", "solver.apply", "solver.cut_sets")


def per_layer(untraced: Phase, traced: Phase, tracer) -> dict[str, tuple[float, str]]:
    samples = [t for times in traced.item_ns.values() for t in times]
    ops = len(samples)
    counts = traced.pass_counts[0]
    metrics = {
        name: (tracer.self_ns.get(span, 0) / ops / 1e9, "s")
        for name, span in LAYER_TIMES.items()
    }
    for name in ("graph.adjacency_queries", "solver.exchanges", "solver.phi0",
                 "tree.builds", "oracle.words", "cli.output_bytes",
                 "solver.false_stall_base"):
        metrics[name] = (counts.get(name, 0), "count")
    passes = len(traced.pass_counts)
    exchanges = counts.get("solver.exchanges", 0) * passes
    step_ns = sum(tracer.total_ns.get(span, 0) for span in EXCHANGE_STEPS)
    metrics["solver.exchange_us"] = (step_ns / exchanges / 1e3 if exchanges else 0.0, "us")
    base = counts.get("solver.false_stall_base", 0)
    metrics["solver.false_stall_ratio"] = (
        counts.get("solver.false_stalls", 0) / base if base else 0.0, "ratio")
    words = counts.get("oracle.words", 0)
    metrics["oracle.us_per_word"] = (
        tracer.total_ns.get("oracle.count", 0) / (words * passes) / 1e3 if words else 0.0, "us")
    metrics["oracle.contained_ratio"] = (
        counts.get("oracle.contained", 0) / words if words else 0.0, "ratio")
    metrics["trace_overhead"] = (
        statistics.median(best_ns(traced)) / statistics.median(best_ns(untraced)), "ratio")
    metrics["trace.op_mean_s"] = (sum(samples) / ops / 1e9, "s")
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the input directory is still removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = inputs.BENCH.parent
    loadavg = os.getloadavg()
    degspan = inputs.import_degspan()
    import tracing
    import workloads

    work_parent = inputs.BENCH / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        subprocess.run(
            [sys.executable, str(inputs.BENCH / "inputs.py"), args.workload, str(args.seed),
             args.size, str(workdir)],
            check=True, timeout=170,
        )
        manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
        w = workloads.WORKLOADS[args.workload](manifest, workdir)
        return measure(args, w, manifest, root, loadavg, degspan, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, w, manifest, root, loadavg, degspan, tracing) -> int:
    problems: list[str] = []
    expected = inputs.recorded_digest(args.workload, args.size, args.seed)
    if expected is not None and expected != manifest["digest"]:
        problems.append(
            "generated inputs differ from bench/digests.json for this seed: an input "
            "generator in degspan changed its output, so the workload changed")

    module = "degspan.cli" if args.workload == "cli-oneshot" else "degspan"
    import_s = median_import_s(module)
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        w.setup()
        setup_times.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    pending: dict = {}
    if args.trace == 0:
        phases = [run_phase(w, args.seconds, 3, pending)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        untraced = run_phase(w, args.seconds / 2, 2, pending)
        before = tracing.bindings()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = run_phase(w, args.seconds / 2, 2, pending, tracer)
        phases = [untraced, traced]
        if any(a is not b for a, b in zip(before, tracing.bindings())):
            problems.append("tracing left a wrapped attribute in place")
        reference = untraced.pass_digests[0]
        if any(d != reference for d in traced.pass_digests):
            problems.append("the traced run produced outputs that differ from the untraced run")
        first = traced.pass_counts[0]
        if any(c != first for c in traced.pass_counts):
            problems.append(f"exact counts differ between traced passes: {traced.pass_counts}")

    checked = run_once(w, pending)
    verdicts = gate_all(w, pending)
    attempted = sum(len(p.keys) for p in (*phases, checked))
    failures = Counter()
    for p in (*phases, checked):
        for key in p.keys:
            reason = "raised an exception" if key[1] is None else verdicts[key]
            if reason is not None:
                failures[f"item {key[0]}: {reason}"] += 1
    failed = sum(failures.values())

    if args.trace == 0:
        metrics = end_to_end(phases[0], setup_s, peak_rss_mb)
        pct = tail(best_ns(phases[0]))
    else:
        metrics = per_layer(untraced, traced, tracer)
    correct = failed == 0 and not problems

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": loadavg,
        "commit": commit_of(root),
        "degspan_version": degspan.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_digest": manifest["digest"],
        "inputs_digest_recorded": expected,
        "passes": [len(p.pass_digests) for p in phases],
        "ops_per_pass": len(w.timed),
        "checked_once": len(w.once),
        "pass_counts": phases[-1].pass_counts[0],
    }
    print(f"degspan bench: {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {unit}")
    print(f"  {'fail_ratio':28s} {failed / attempted:>16.6f} ratio ({failed} of {attempted})")
    if args.trace == 0:
        print(f"  op_tail_ms is p{pct[1]:.2f} of {pct[2]} items, each its fastest of "
              f"{len(phases[0].pass_digests)} passes")
    for p in (*phases, checked):
        for error in p.errors[:3]:
            print(error, file=sys.stderr)
    for reason, count in failures.most_common(10):
        print(f"FAILED x{count}: {reason}", file=sys.stderr)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
