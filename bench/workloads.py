"""The benchmark's workloads: inputs, one timed operation, digest and gate.

Every operation calls degspan through module attributes (``solver.find_
spanning_tree``, ``cli.main``) at call time, so the tracer's wrappers see the
calls the benchmark makes as well as the calls degspan makes internally.

``run`` is the timed operation.  ``digest`` names its output so that repeated
passes, and the traced run, can be compared with the first untraced pass.
``gate`` is the independent correctness check of one output and returns the
reason it fails, or None.  ``tally`` returns the per-operation counts that
the workload, rather than the tracer, knows about.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import degspan.cli as cli
import degspan.extremal as extremal
import degspan.graph as graph
import degspan.oracle as oracle
import degspan.solver as solver
from degspan.graph import LabelledGraph
from degspan.sequences import parse_sequence_literal
from degspan.tree import LabelledTree


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _result_json(result) -> dict:
    return {
        "tree": None if result.tree is None else [list(e) for e in result.tree.edges],
        "steps": [s.to_json_dict() for s in result.steps],
        "witness": None if result.witness is None else result.witness.to_json_dict(),
    }


def _read_edges(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and edge set of a graph file, read without degspan."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    edges = {(min(u, v), max(u, v)) for u, v in ((int(a), int(b)) for a, b in lines[1:])}
    return int(lines[0][0]), edges


class Workload:
    """Shared loading; subclasses define the operation and its checks."""

    def __init__(self, manifest: dict, inputs: Path) -> None:
        self.items: list[dict] = manifest["items"]
        # Items timed in every pass, and items run once per run, untimed.
        self.timed = [i for i, item in enumerate(self.items) if not item.get("once")]
        self.once = [i for i, item in enumerate(self.items) if item.get("once")]
        self.hosts: list[dict] = manifest["hosts"]
        self.inputs = inputs

    def read(self, name: str) -> str:
        return (self.inputs / name).read_text(encoding="utf-8")

    def setup(self) -> None:
        """The program's one-time work before the first operation."""

    def tally(self, i: int, outcome) -> dict[str, int]:
        return {}


class CliOneshot(Workload):
    """``degspan check`` then ``degspan solve`` on one graph file, in process."""

    def __init__(self, manifest: dict, inputs: Path) -> None:
        super().__init__(manifest, inputs)
        self.argvs = []
        for item in self.items:
            path = str(inputs / item["graph"])
            self.argvs.append((
                ["check", "--graph", path, "--r", str(item["r"]), "--format", "json"],
                ["solve", "--graph", path, "--seq", "@" + str(inputs / item["seq"]),
                 "--format", "json"],
            ))
        self._gate_graph: tuple[int, tuple] | None = None

    def run(self, i: int):
        outputs = []
        for argv in self.argvs[i]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            outputs.append((code, out.getvalue(), err.getvalue()))
        return tuple(outputs)

    def digest(self, outcome) -> str:
        return _sha(outcome)

    def tally(self, i: int, outcome) -> dict[str, int]:
        return {"cli.output_bytes": sum(len(out.encode()) for _, out, _ in outcome)}

    def _graph(self, i: int):
        if self._gate_graph is None or self._gate_graph[0] != i:
            n, edges = _read_edges(self.read(self.items[i]["graph"]))
            g = LabelledGraph.from_edges(n, edges)
            self._gate_graph = (i, (n, edges, g))
        return self._gate_graph[1]

    def gate(self, i: int, outcome) -> str | None:
        (check_code, check_out, _), (solve_code, solve_out, _) = outcome
        item = self.items[i]
        n, edges, g = self._graph(i)
        r = item["r"]
        try:
            report = json.loads(check_out)
            solved = json.loads(solve_out)
        except json.JSONDecodeError as exc:
            return f"unparsable CLI output: {exc}"
        threshold = Fraction((2 * r - 3) * n - (2 * r - 5), r - 1)
        if (report["n"], report["r"], Fraction(report["threshold"])) != (n, r, threshold):
            return f"check reported n/r/threshold {report['n']}/{report['r']}/{report['threshold']}"
        if report["satisfied"] is not True or check_code != 0:
            return f"check: satisfied={report['satisfied']} exit={check_code}"
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        worst = min(
            (degree[u] + degree[v] for u in range(n) for v in range(u + 1, n)
             if (u, v) not in edges),
            default=None,
        )
        reported = report["worst_pair"] and report["worst_pair"]["sum"]
        if reported != worst or (worst is not None and worst < threshold):
            return f"check: worst pair sum {reported}, recomputed {worst}"
        if solved.get("status") != "found" or solve_code != 0:
            return f"solve: status={solved.get('status')} exit={solve_code}"
        tree = LabelledTree.from_edges(solved["n"], map(tuple, solved["edges"]))
        seq = parse_sequence_literal(self.read(item["seq"]))
        verdict = solver.verify_tree(g, tree, seq)
        if not verdict:
            return f"solve: tree fails verify_tree: {verdict.reason}"
        if any(e not in edges for e in tree.edges) or len(solved["exchanges"]) > n - 1:
            return "solve: tree edge outside the file, or more than n-1 exchanges"
        return None


class SweepSolve(Workload):
    """``find_spanning_tree`` + ``verify_tree`` against host graphs parsed once."""

    def __init__(self, manifest: dict, inputs: Path) -> None:
        super().__init__(manifest, inputs)
        self.texts = [self.read(h["graph"]) for h in self.hosts]
        self.seqs = [parse_sequence_literal(self.read(item["seq"])) for item in self.items]
        self.graphs: list = []

    def setup(self) -> None:
        self.graphs = []  # free the previous set-up's graphs before parsing again
        self.graphs = [graph.parse_graph(text) for text in self.texts]

    def run(self, i: int):
        g, seq = self.graphs[self.items[i]["host"]], self.seqs[i]
        result = solver.find_spanning_tree(g, seq)
        verdict = solver.verify_tree(g, result.tree, seq) if result.ok else None
        return result, verdict

    def digest(self, outcome) -> str:
        result, verdict = outcome
        return _sha([_result_json(result), None if verdict is None else verdict.ok])

    def gate(self, i: int, outcome) -> str | None:
        result, verdict = outcome
        g, seq = self.graphs[self.items[i]["host"]], self.seqs[i]
        if not result.ok:
            return f"stalled under the bound at {result.witness.u},{result.witness.v}"
        recheck = solver.verify_tree(g, result.tree, seq)
        if not (verdict and recheck):
            return f"tree fails verify_tree: {recheck.reason}"
        if len(result.steps) > g.n - 1:
            return f"{len(result.steps)} exchanges exceed n-1"
        return None


class OracleAgree(Workload):
    """Solver, witness check and exhaustive oracle on small graphs; they must agree."""

    def __init__(self, manifest: dict, inputs: Path) -> None:
        super().__init__(manifest, inputs)
        self.texts = [self.read(item["graph"]) for item in self.items]
        self.seqs = [parse_sequence_literal(self.read(item["seq"])) for item in self.items]

    def run(self, i: int):
        item = self.items[i]
        if item["kind"] == "extremal":
            g, seq = extremal.build_extremal(item["k"], item["r"])
        else:
            g, seq = graph.parse_graph(self.texts[i]), self.seqs[i]
        result = solver.find_spanning_tree(g, seq)
        if result.ok:
            checked = solver.verify_tree(g, result.tree, seq)
        else:
            checked = solver.validate_witness(g, result.witness)
        return g, seq, result, bool(checked), oracle.oracle_count(g, seq)

    def digest(self, outcome) -> str:
        g, seq, result, checked, count = outcome
        return _sha([list(g.edges), list(seq.degrees), _result_json(result), checked, count])

    def tally(self, i: int, outcome) -> dict[str, int]:
        _, _, result, _, count = outcome
        if self.items[i]["kind"] != "random" or count == 0:
            return {}
        return {"solver.false_stall_base": 1, "solver.false_stalls": int(not result.ok)}

    def gate(self, i: int, outcome) -> str | None:
        g, seq, result, checked, count = outcome
        item = self.items[i]
        if graph.serialize_graph(g) != self.texts[i] or seq != self.seqs[i]:
            return "operation ran on a graph or sequence other than its input file"
        if result.ok:
            recheck = solver.verify_tree(g, result.tree, seq)
            if not (checked and recheck):
                return f"tree fails verify_tree: {recheck.reason}"
            if count == 0:
                return "solver found a tree the oracle says does not exist"
        else:
            if not (checked and solver.validate_witness(g, result.witness)):
                return "stall witness fails validate_witness"
            if result.witness.contradicts_condition:
                return "stalled although the graph meets the degree-sum bound"
        if item["kind"] == "extremal" and (result.ok or count != 0):
            return f"extremal ({item['k']},{item['r']}): solved={result.ok} oracle={count}"
        return None


WORKLOADS = {
    "cli-oneshot": CliOneshot,
    "sweep-solve": SweepSolve,
    "oracle-agree": OracleAgree,
}
