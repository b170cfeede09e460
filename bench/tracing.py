"""Outside-in tracing of degspan: timing wrappers swapped into module attributes.

Callers inside degspan look functions up through their module's globals
(``degspan.cli.parse_graph``, ``degspan.solver.orient_forest``) or through a
class (``LabelledGraph.are_adjacent``), so replacing those attributes times
every call without editing ``src/``.  ``installed`` swaps the wrappers in and
always puts the originals back, also when the traced code raises.

Each span records its inclusive time and its self time: the inclusive time
minus the time of the spans it directly encloses.  Opaque spans (witness
construction and validation) fold everything they call into their own self
time, so their orientation and cut-set work is not booked as exchange work.
No layer waits on another (one thread, no queues), so self time is busy time.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter_ns

import degspan.cli
import degspan.condition
import degspan.extremal
import degspan.graph
import degspan.oracle
import degspan.solver
from degspan.graph import LabelledGraph
from degspan.tree import LabelledTree

# (module, attribute, span name, opaque).  A name may appear under several
# modules because each importing module holds its own reference.
FUNCTION_SPANS = (
    (degspan.cli, "main", "cli", False),
    (degspan.cli, "parse_graph", "graph.parse", False),
    (degspan.graph, "parse_graph", "graph.parse", False),
    (degspan.cli, "check_condition", "condition.check", False),
    (degspan.condition, "min_nonadjacent_degree_sum", "graph.min_pair_scan", False),
    (degspan.cli, "find_spanning_tree", "solver.find", False),
    (degspan.solver, "find_spanning_tree", "solver.find", False),
    (degspan.cli, "verify_tree", "solver.verify", False),
    (degspan.solver, "verify_tree", "solver.verify", False),
    (degspan.solver, "orient_forest", "solver.orient", False),
    (degspan.solver, "compute_cut_sets", "solver.cut_sets", False),
    (degspan.solver, "apply_exchange", "solver.apply", False),
    (degspan.solver, "foreign_edges", "solver.foreign_scan", False),
    (degspan.solver, "build_witness", "solver.witness", True),
    (degspan.solver, "validate_witness", "solver.validate_witness", True),
    (degspan.solver, "realize_tree", "sequences.realize", False),
    (degspan.oracle, "oracle_count", "oracle.count", False),
    (degspan.extremal, "build_extremal", "extremal.build", False),
)
CLASSMETHOD_SPANS = (
    (LabelledGraph, "from_edges", "graph.from_edges"),
    (LabelledTree, "from_edges", "tree.build"),
)
ROOT = "trace.unattributed"

# Counts that must repeat exactly between two runs of the same inputs.
EXACT_COUNTS = (
    "solver.exchanges",
    "solver.phi0",
    "graph.adjacency_queries",
    "tree.builds",
    "oracle.words",
    "oracle.contained",
)


class Tracer:
    """Span times and counts of the calls made while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list[int]] = []  # one [child ns] cell per open span
        self.opaque = 0
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.adjacency_queries = 0
        self.phi0_pending = False

    def take_counts(self) -> dict[str, int]:
        """Counts since the last call, then reset them."""
        counts = {name: self.counts.get(name, 0) for name in EXACT_COUNTS}
        counts["graph.adjacency_queries"] = self.adjacency_queries
        self.counts.clear()
        self.adjacency_queries = 0
        return counts

    def _close(self, name: str, cell: list[int], elapsed: int) -> None:
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += elapsed
        self.total_ns[name] += elapsed
        self.self_ns[name] += elapsed - cell[0]

    def op(self, fn, *args):
        """Run one benchmark operation as the root span; return (ns, result)."""
        cell = [0]
        self.stack.append(cell)
        self.active = True
        start = perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            elapsed = perf_counter_ns() - start
            self.active = False
            self._close(ROOT, cell, elapsed)
            self.stack.clear()
            self.opaque = 0
        return elapsed, result

    def span(self, name: str, fn, opaque: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if tracer.opaque:
                result = fn(*args, **kwargs)
                tracer._observe(name, args, result)
                return result
            if name == "solver.find":
                tracer.phi0_pending = True
            cell = [0]
            tracer.stack.append(cell)
            tracer.opaque += opaque
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                tracer.opaque -= opaque
                tracer._close(name, cell, elapsed)
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name: str, args: tuple, result) -> None:
        if name == "tree.build":
            self.counts["tree.builds"] += 1
        elif name == "solver.find":
            self.counts["solver.exchanges"] += len(result.steps)
        elif name == "solver.foreign_scan" and self.phi0_pending:
            self.phi0_pending = False
            self.counts["solver.phi0"] += len(result)
        elif name == "oracle.count":
            self.counts["oracle.words"] += degspan.oracle.count_trees(args[1])
            self.counts["oracle.contained"] += result

    def counting_adjacency(self, fn):
        tracer = self

        @functools.wraps(fn)
        def are_adjacent(graph, u, v):
            if tracer.active:
                tracer.adjacency_queries += 1
            return fn(graph, u, v)

        return are_adjacent


def _targets():
    for module, attr, name, opaque in FUNCTION_SPANS:
        yield module, attr, ("function", name, opaque)
    for cls, attr, name in CLASSMETHOD_SPANS:
        yield cls, attr, ("classmethod", name, False)
    yield LabelledGraph, "are_adjacent", ("count", None, False)


def _original(owner, attr):
    # Class attributes are saved from __dict__ so a classmethod object is
    # restored as itself rather than as a bound method.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def bindings() -> list:
    """The objects currently bound at every attribute the tracer wraps."""
    return [_original(owner, attr) for owner, attr, _ in _targets()]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap timing wrappers into degspan for the duration of the block."""
    saved = []
    try:
        for owner, attr, (kind, name, opaque) in _targets():
            original = _original(owner, attr)
            saved.append((owner, attr, original))
            if kind == "function":
                replacement = tracer.span(name, original, opaque)
            elif kind == "classmethod":
                replacement = classmethod(tracer.span(name, original.__func__, opaque))
            else:
                replacement = tracer.counting_adjacency(original)
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
