"""Command-line front end: solve, check, realize, oracle, extremal, batch."""

import argparse
import functools
import json
import random
import sys
from collections.abc import Callable
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple

from .condition import check_condition, random_condition_graph
from .extremal import build_extremal, extremal_worst_sum
from .graph import MAX_GENERATED_N, LabelledGraph, _named_int, parse_graph, serialize_graph
from .oracle import DEFAULT_BUDGET, OracleBudgetError, count_trees, oracle_count, oracle_find
from .sequences import DegreeSequence, parse_sequence_literal, random_degree_sequence, realize_tree
from .solver import SolverInvariantError, find_spanning_tree, validate_witness, verify_tree

__all__ = ["main", "entrypoint", "run_batch", "BatchSummary"]


class Report(NamedTuple):
    """One subcommand's result: its JSON payload, its text form and its exit code."""

    payload: dict[str, Any]
    text: str
    code: int


def _load_graph(path: str) -> LabelledGraph:
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _load_sequence(source: str) -> DegreeSequence:
    if source.startswith("@"):
        source = Path(source[1:]).read_text(encoding="utf-8")
    return parse_sequence_literal(source)


def _cmd_solve(args: argparse.Namespace) -> Report:
    g = _load_graph(args.graph)
    seq = _load_sequence(args.seq)
    result = find_spanning_tree(g, seq)
    t = result.tree
    if t is not None:
        outcome = verify_tree(g, t, seq)
        if not outcome:
            raise SolverInvariantError(f"solver emitted an invalid tree: {outcome.reason}")
        payload = {
            "status": "found",
            **t.to_json_dict(),
            "exchanges": [s.to_json_dict() for s in result.steps],
        }
        return Report(payload, serialize_graph(t), 0)
    w = result.witness
    if not validate_witness(g, w):
        raise SolverInvariantError("solver emitted a witness that fails validate_witness")
    witness = w.to_json_dict()
    counts = [f"{key}={value}" for key, value in witness["counts"].items()]
    final = w.chain[-1]
    text = (
        f"stalled: no exchange at missing pair ({w.u}, {w.v})\n"
        f"component sizes: {w.size_u} + {w.size_v} = {w.size_u + w.size_v}\n"
        f"counts: {' '.join(counts[:4])}\n"
        f"        {' '.join(counts[4:])}\n"
        f"deg(u)+deg(v) = {w.degree_sum}; {final.label}: {final.lhs} <= {final.rhs}\n"
    )
    return Report({"status": "stalled", "witness": witness}, text, 1)


def _cmd_check(args: argparse.Namespace) -> Report:
    g = _load_graph(args.graph)
    report = check_condition(g, args.r)
    if report.worst_pair is None:
        worst = "none (complete graph)"
    else:
        u, v, s = report.worst_pair
        worst = f"({u}, {v}) sum {s}"
    text = (
        f"n={report.n} r={report.r} threshold={report.threshold}\n"
        f"worst pair: {worst}\n"
        f"condition: {'satisfied' if report.satisfied else 'NOT satisfied'}\n"
    )
    return Report(report.to_json_dict(), text, 0 if report.satisfied else 1)


def _cmd_realize(args: argparse.Namespace) -> Report:
    t = realize_tree(_load_sequence(args.seq))
    return Report(t.to_json_dict(), serialize_graph(t), 0)


def _cmd_oracle_find(args: argparse.Namespace) -> Report:
    g = _load_graph(args.graph)
    seq = _load_sequence(args.seq)
    tree = oracle_find(g, seq, budget=args.budget)
    total = count_trees(seq)
    if tree is None:
        text = f"none of the {total} candidate trees is contained in the graph\n"
        return Report({"total_candidates": total, "first_tree": None}, text, 1)
    payload = {"total_candidates": total, "first_tree": tree.to_json_dict()}
    return Report(payload, serialize_graph(tree), 0)


def _cmd_oracle_count(args: argparse.Namespace) -> Report:
    g = _load_graph(args.graph)
    seq = _load_sequence(args.seq)
    contained = oracle_count(g, seq, budget=args.budget)
    total = count_trees(seq)
    return Report(
        {"total_candidates": total, "contained_count": contained},
        f"{contained} of {total} candidate trees contained in the graph\n",
        0 if contained > 0 else 1,
    )


def _cmd_extremal(args: argparse.Namespace) -> Report:
    g, seq = build_extremal(args.k, args.r)
    payload: dict[str, Any] = {
        "k": args.k, "r": args.r, **g.to_json_dict(), "sequence": list(seq.degrees)
    }
    text = serialize_graph(g) + f"# sequence: {','.join(str(d) for d in seq.degrees)}\n"
    ok = True
    if args.verify:
        report = check_condition(g, args.r)
        worst_sum = report.worst_pair[2]  # the X-Y pairs are missing, so never None
        formula = extremal_worst_sum(args.k, args.r)
        gap = report.threshold - worst_sum
        try:
            oracle_result: int | None = oracle_count(g, seq, budget=args.budget)
        except OracleBudgetError:
            oracle_result = None
        ok = (
            not report.satisfied
            and worst_sum == formula
            and gap == Fraction(1, args.r - 1)
            and oracle_result in (0, None)
        )
        verification = {
            "condition_satisfied": report.satisfied,
            "worst_sum": worst_sum,
            "worst_sum_formula": formula,
            "threshold": str(report.threshold),
            "gap": str(gap),
            "oracle_count": oracle_result,
            "ok": ok,
        }
        payload["verification"] = verification
        text += "".join(f"# {key}: {value}\n" for key, value in verification.items())
    return Report(payload, text, 0 if ok else 1)


class BatchSummary(NamedTuple):
    """Aggregate outcome of one randomized ensemble run."""

    instances: int
    solved: int
    verified: int
    max_exchanges: int
    failures: tuple[str, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return self._asdict()


def run_batch(
    n_min: int,
    n_max: int,
    r: int,
    count: int,
    base_seed: int = 0,
    verbose: bool = False,
) -> BatchSummary:
    """Solve and verify ``count`` random threshold-satisfying instances.

    Every instance draws a graph from random_condition_graph and a random
    valid sequence capped at r, so each solve is in the guaranteed regime
    and any stall or failed verification is recorded as a failure.  The
    five integer arguments follow ``_named_int``'s rule: 3.0 reads as 3.
    """
    n_min, n_max, r = _named_int("n_min", n_min), _named_int("n_max", n_max), _named_int("r", r)
    count, base_seed = _named_int("count", count), _named_int("base_seed", base_seed)
    if n_min > n_max:
        raise ValueError(f"empty order range [{n_min}, {n_max}]")
    if count < 0:
        raise ValueError(f"instance count must be non-negative, got {count}")
    if n_max > MAX_GENERATED_N:
        raise ValueError(f"order {n_max} exceeds the generator limit {MAX_GENERATED_N}")
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    # the generator's floor and degree_sum_threshold's precondition
    if n_min < max(4, r + 1):
        raise ValueError(f"need n-min >= {max(4, r + 1)} for r = {r}, got {n_min}")
    solved = 0
    verified = 0
    max_exchanges = 0
    failures: list[str] = []
    for i in range(count):
        rng = random.Random(base_seed * 1_000_003 + i)
        n = rng.randint(n_min, n_max)
        g = random_condition_graph(n, r, seed=rng.randrange(2**32))
        seq = random_degree_sequence(n, r, rng)
        result = find_spanning_tree(g, seq)
        max_exchanges = max(max_exchanges, len(result.steps))
        if not result.ok:
            failures.append(f"instance {i} (n={n}, r={r}): stalled")
            continue
        solved += 1
        outcome = verify_tree(g, result.tree, seq)
        if outcome:
            verified += 1
        else:
            failures.append(f"instance {i} (n={n}, r={r}): {outcome.reason}")
        if verbose:
            print(
                f"instance {i}: n={n} exchanges={len(result.steps)} ok={bool(outcome)}",
                file=sys.stderr,
            )
    return BatchSummary(
        instances=count,
        solved=solved,
        verified=verified,
        max_exchanges=max_exchanges,
        failures=tuple(failures),
    )


def _cmd_batch(args: argparse.Namespace) -> Report:
    summary = run_batch(
        args.n_min, args.n_max, args.r, args.count, base_seed=args.seed, verbose=args.verbose
    )
    text = (
        f"instances: {summary.instances} solved: {summary.solved}"
        f" verified: {summary.verified} max_exchanges: {summary.max_exchanges}"
        f" failures: {len(summary.failures)}\n"
    ) + "".join(f"  {line}\n" for line in summary.failures)
    return Report(summary.to_json_dict(), text, 0 if not summary.failures else 1)


def _int(text: str) -> int:
    """An integer option, spelt as graph files and sequence literals spell numbers:
    ASCII digits after an optional minus sign, so ``0_1``, `` 5`` and ``５`` are refused."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degspan", description="Spanning trees with an exact prescribed degree sequence.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each option that several subcommands take is declared once, in its own parent
    graph, seq, budget, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    graph.add_argument("--graph", required=True, help="graph file path")
    seq.add_argument("--seq", required=True, help="degree literal '3,1,1,1' or @FILE")
    budget.add_argument("--budget", type=_int, default=DEFAULT_BUDGET)
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    def command(name: str, func: Callable[[argparse.Namespace], Report], summary: str,
                *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary, parents=[*parents, fmt])
        sp.set_defaults(func=func)
        return sp

    command("solve", _cmd_solve, "find a spanning tree with the given degree sequence", graph, seq)
    check = command("check", _cmd_check, "evaluate the degree-sum condition", graph)
    check.add_argument("--r", type=_int, required=True, help="degree cap parameter (>= 2)")
    command("realize", _cmd_realize, "canonical tree for a degree sequence", seq)
    command("oracle-find", _cmd_oracle_find, "exhaustive search for a contained tree",
            graph, seq, budget)
    command("oracle-count", _cmd_oracle_count, "exhaustive count of contained trees",
            graph, seq, budget)
    extremal = command("extremal", _cmd_extremal, "emit a tight example family member", budget)
    extremal.add_argument("--k", type=_int, required=True, help="group size (>= 1)")
    extremal.add_argument("--r", type=_int, default=3, help="degree cap (>= 3, default 3)")
    extremal.add_argument("--verify", action="store_true", help="run the tightness checks")
    batch = command("batch", _cmd_batch, "randomized solve/verify ensemble")
    batch.add_argument("--n-min", type=_int, required=True)
    batch.add_argument("--n-max", type=_int, required=True)
    batch.add_argument("--r", type=_int, default=3)
    batch.add_argument("--count", type=_int, required=True, help="number of instances")
    batch.add_argument("--seed", type=_int, default=0)
    batch.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and write its result to stdout.

    Exit codes: 0 found/ok, 1 negative verdict, 2 bad input, 3 a solver
    invariant failed (a bug, reported instead of a traceback).
    """
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        report = args.func(args)
    except SolverInvariantError as exc:
        print(f"error: solver invariant: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.payload, indent=2))
    else:
        print(report.text, end="")
    return report.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
