"""Spanning-tree search by degree-preserving edge exchanges.

The solver keeps a labelled tree whose degree vector equals the target
sequence throughout.  While the tree uses edges missing from the host
graph, it removes the smallest such edge (u, v), orients the two resulting
components away from their roots u and v, and looks for a vertex w that is
simultaneously

  * a *hook*: tree parent of some child y the near root could adopt
    (root-y is a graph edge), and
  * a *bridge*: itself graph-adjacent to the far root.

Dropping the tree edge (w, y) and adding root-y plus far-root-w then gives
a tree with the same degree everywhere and strictly fewer missing edges,
so at most n - 1 exchanges ever run.  When no such w exists on either
side, the hook and bridge sets are disjoint, and counting them against the
component sizes bounds deg(u) + deg(v) away from the degree-sum threshold;
the recorded counts form an InfeasibilityWitness.  Under the threshold
condition that bound is contradictory, which is exactly why the solver
cannot stall there.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

from .condition import degree_sum_threshold
from .graph import Edge, LabelledGraph, normalized_edge
from .sequences import DegreeSequence, realize_tree
from .tree import LabelledTree, tree_defect

__all__ = [
    "RootedForest",
    "CutAnalysis",
    "Exchange",
    "ExchangeStep",
    "Inequality",
    "InfeasibilityWitness",
    "SolveResult",
    "SolverInvariantError",
    "VerifyResult",
    "orient_forest",
    "compute_cut_sets",
    "apply_exchange",
    "build_witness",
    "validate_witness",
    "find_spanning_tree",
    "verify_tree",
]


class SolverInvariantError(RuntimeError):
    """A property the exchange argument guarantees failed: a solver bug."""


@dataclass(frozen=True)
class RootedForest:
    """A tree split at one edge, each side oriented away from its root.

    ``component[x]`` is 0 on the side rooted at u (the smaller endpoint of
    the removed edge) and 1 on the side rooted at v.  ``parent`` is None
    exactly at the two roots; following it from anywhere reaches a root.
    """

    removed_edge: Edge
    component: tuple[int, ...]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    size_u: int
    size_v: int


@dataclass(frozen=True)
class Exchange:
    """One degree-preserving rewiring step.

    ``side`` names the component holding the dropped tree edge: the near
    root adopts the orphaned child y via ``add_1`` while the far root
    attaches to its parent w via ``add_2``.  Both added edges exist in the
    host graph, so the number of missing tree edges drops by one, or by
    two when (w, y) was itself missing.
    """

    side: str  # "u" or "v"
    drop_foreign: Edge
    drop_tree: tuple[int, int]  # (w, y) with w the tree parent of y
    add_1: tuple[int, int]  # (near root, y)
    add_2: tuple[int, int]  # (far root, w)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "side": self.side,
            "drop_foreign": list(self.drop_foreign),
            "drop_tree": list(self.drop_tree),
            "add_1": list(self.add_1),
            "add_2": list(self.add_2),
        }


@dataclass(frozen=True)
class ExchangeStep:
    exchange: Exchange
    phi_after: int  # missing-edge count once the exchange is applied

    def to_json_dict(self) -> dict[str, Any]:
        return {**self.exchange.to_json_dict(), "phi_after": self.phi_after}


@dataclass(frozen=True)
class CutAnalysis:
    """Hook and bridge sets of one split, with per-side neighbor counts.

    For the side rooted at u: ``hooks_u`` are tree parents of vertices y
    in that component with uy a graph edge; ``bridges_u`` are vertices of
    that component graph-adjacent to v.  ``u_nbrs_same``/``u_nbrs_other``
    split deg(u) by component (likewise for v), so len(bridges_u) ==
    v_nbrs_other and len(bridges_v) == u_nbrs_other.
    """

    hooks_u: frozenset[int]
    bridges_u: frozenset[int]
    hooks_v: frozenset[int]
    bridges_v: frozenset[int]
    u_nbrs_same: int
    u_nbrs_other: int
    v_nbrs_same: int
    v_nbrs_other: int
    candidate: Exchange | None


@dataclass(frozen=True)
class Inequality:
    """One evaluated comparison of a witness chain."""

    label: str
    lhs: int
    op: str  # "<=" or "=="
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs if self.op == "<=" else self.lhs == self.rhs

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "op": self.op,
            "rhs": self.rhs,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class InfeasibilityWitness:
    """Counting record of a stalled exchange at the split (u, v).

    Every count is re-derivable from ``tree`` and the graph, and the chain
    culminates in (r-1)(deg(u)+deg(v)) <= (2r-3)n - 2(r-2) — for r = 3,
    2(deg(u)+deg(v)) <= 3n - 2 — which sits 1/(r-1) below the degree-sum
    threshold.  A stall therefore proves the graph misses the threshold at
    (u, v); ``contradicts_condition`` flags the impossible case (stall
    despite the threshold holding), which would mean a solver bug.
    """

    u: int
    v: int
    r: int
    size_u: int
    size_v: int
    hooks_u: int
    bridges_u: int
    hooks_v: int
    bridges_v: int
    u_nbrs_same: int
    u_nbrs_other: int
    v_nbrs_same: int
    v_nbrs_other: int
    degree_sum: int  # deg(u) + deg(v) in the host graph
    chain: tuple[Inequality, ...]
    contradicts_condition: bool
    tree: LabelledTree

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "pair": [self.u, self.v],
            "r": self.r,
            "size_u": self.size_u,
            "size_v": self.size_v,
            "counts": {
                "hooks_u": self.hooks_u,
                "bridges_u": self.bridges_u,
                "hooks_v": self.hooks_v,
                "bridges_v": self.bridges_v,
                "u_nbrs_same": self.u_nbrs_same,
                "u_nbrs_other": self.u_nbrs_other,
                "v_nbrs_same": self.v_nbrs_same,
                "v_nbrs_other": self.v_nbrs_other,
            },
            "degree_sum": self.degree_sum,
            "contradicts_condition": self.contradicts_condition,
            "inequalities": [ineq.to_json_dict() for ineq in self.chain],
            "tree": {"n": self.tree.n, "edges": [list(e) for e in self.tree.edges]},
        }


@dataclass(frozen=True)
class SolveResult:
    """Either a spanning tree of the graph or the witness of a stall."""

    tree: LabelledTree | None
    witness: InfeasibilityWitness | None
    steps: tuple[ExchangeStep, ...]

    @property
    def ok(self) -> bool:
        return self.tree is not None


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def foreign_edges(g: LabelledGraph, t: LabelledTree) -> tuple[Edge, ...]:
    """Tree edges absent from the graph, ascending (the potential phi)."""
    return tuple(e for e in t.edges if not g.are_adjacent(*e))


def orient_forest(t: LabelledTree, u: int, v: int) -> RootedForest:
    """Remove tree edge (u, v) and orient both components away from u and v."""
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise ValueError(f"vertices ({u}, {v}) out of range")
    adj = t.adjacency_sets()
    if v not in adj[u]:
        raise ValueError(f"({u}, {v}) is not a tree edge")
    adj[u].discard(v)
    adj[v].discard(u)
    component = [-1] * t.n
    parent: list[int | None] = [None] * t.n
    children: list[list[int]] = [[] for _ in range(t.n)]
    for root, label in ((u, 0), (v, 1)):
        component[root] = label
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if component[y] == -1:
                    component[y] = label
                    parent[y] = x
                    children[x].append(y)
                    queue.append(y)
    if any(c == -1 for c in component):
        raise ValueError("input is not a tree: some vertices unreachable from the split")
    size_u = component.count(0)
    return RootedForest(
        removed_edge=normalized_edge(u, v),
        component=tuple(component),
        parent=tuple(parent),
        children=tuple(tuple(sorted(c)) for c in children),
        size_u=size_u,
        size_v=t.n - size_u,
    )


def compute_cut_sets(g: LabelledGraph, f: RootedForest) -> CutAnalysis:
    """Hook/bridge sets of the split plus the first applicable exchange.

    Scans the u side before the v side, and within a side picks the
    smallest hook-and-bridge vertex w, then the smallest of its children
    adoptable by the near root.  The roots themselves can be hooks, but
    never bridges while (u, v) is missing from the graph.
    """
    u, v = f.removed_edge
    comp = f.component
    u_same = [y for y in g.adjacency[u] if comp[y] == 0]
    u_other = [x for x in g.adjacency[u] if comp[x] == 1]
    v_same = [y for y in g.adjacency[v] if comp[y] == 1]
    v_other = [x for x in g.adjacency[v] if comp[x] == 0]
    # y here is never its own root (no loops), so parent[y] is an int
    hooks_u = frozenset(f.parent[y] for y in u_same)
    bridges_u = frozenset(v_other)
    hooks_v = frozenset(f.parent[y] for y in v_same)
    bridges_v = frozenset(u_other)
    if not g.are_adjacent(u, v) and (u in bridges_u or v in bridges_v):
        raise SolverInvariantError(f"a root is a bridge across the missing edge ({u}, {v})")

    candidate: Exchange | None = None
    drop = normalized_edge(u, v)
    both_u = hooks_u & bridges_u
    if both_u:
        w = min(both_u)
        y = min(y for y in f.children[w] if g.are_adjacent(u, y))
        candidate = Exchange(
            side="u", drop_foreign=drop, drop_tree=(w, y), add_1=(u, y), add_2=(v, w)
        )
    else:
        both_v = hooks_v & bridges_v
        if both_v:
            w = min(both_v)
            y = min(y for y in f.children[w] if g.are_adjacent(v, y))
            candidate = Exchange(
                side="v", drop_foreign=drop, drop_tree=(w, y), add_1=(v, y), add_2=(u, w)
            )
    return CutAnalysis(
        hooks_u=hooks_u,
        bridges_u=bridges_u,
        hooks_v=hooks_v,
        bridges_v=bridges_v,
        u_nbrs_same=len(u_same),
        u_nbrs_other=len(u_other),
        v_nbrs_same=len(v_same),
        v_nbrs_other=len(v_other),
        candidate=candidate,
    )


def apply_exchange(t: LabelledTree, x: Exchange) -> LabelledTree:
    """Rewire the tree along an exchange; degrees are untouched.

    The four endpoints each lose one incident edge and gain one, and the
    dropped split edge separates the components that the two added edges
    reconnect, so the result is again a spanning tree.
    """
    edges = set(t.edges)
    drop_f = normalized_edge(*x.drop_foreign)
    drop_t = normalized_edge(*x.drop_tree)
    add_1 = normalized_edge(*x.add_1)
    add_2 = normalized_edge(*x.add_2)
    if drop_f not in edges or drop_t not in edges or add_1 in edges or add_2 in edges:
        raise RuntimeError(f"stale exchange {x} against tree {t.edges}")
    edges.remove(drop_f)
    edges.remove(drop_t)
    edges.add(add_1)
    edges.add(add_2)
    return LabelledTree.from_edges(t.n, edges)


def _witness_chain(
    r: int,
    size_u: int,
    size_v: int,
    c: CutAnalysis,
    deg_u: int,
    deg_v: int,
) -> tuple[Inequality, ...]:
    n = size_u + size_v
    chain: list[Inequality] = []
    sides = (
        ("u", "v", size_u, len(c.hooks_u), len(c.bridges_u),
         len(c.hooks_u & c.bridges_u), c.u_nbrs_same, c.v_nbrs_other),
        ("v", "u", size_v, len(c.hooks_v), len(c.bridges_v),
         len(c.hooks_v & c.bridges_v), c.v_nbrs_same, c.u_nbrs_other),
    )
    for near, far, size, hooks, bridges, overlap, near_same, far_other in sides:
        chain.append(
            Inequality(f"|hooks_{near} & bridges_{near}| == 0", overlap, "==", 0)
        )
        chain.append(
            Inequality(f"|bridges_{near}| == {far}_nbrs_other", bridges, "==", far_other)
        )
        chain.append(
            Inequality(f"{near}_nbrs_same <= (r-1)*|hooks_{near}|",
                       near_same, "<=", (r - 1) * hooks)
        )
        chain.append(
            Inequality(f"|hooks_{near}| + |bridges_{near}| <= size_{near}",
                       hooks + bridges, "<=", size)
        )
        chain.append(
            Inequality(f"{near}_nbrs_same <= size_{near} - 1", near_same, "<=", size - 1)
        )
        chain.append(
            Inequality(
                f"{near}_nbrs_same + (r-1)*{far}_nbrs_other <= (r-1)*size_{near}",
                near_same + (r - 1) * far_other, "<=", (r - 1) * size,
            )
        )
        chain.append(
            Inequality(
                f"(r-1)*({near}_nbrs_same + {far}_nbrs_other) <= (2r-3)*size_{near} - (r-2)",
                (r - 1) * (near_same + far_other), "<=", (2 * r - 3) * size - (r - 2),
            )
        )
    chain.append(Inequality("deg(u) == u_nbrs_same + u_nbrs_other",
                            deg_u, "==", c.u_nbrs_same + c.u_nbrs_other))
    chain.append(Inequality("deg(v) == v_nbrs_same + v_nbrs_other",
                            deg_v, "==", c.v_nbrs_same + c.v_nbrs_other))
    chain.append(
        Inequality("(r-1)*(deg(u)+deg(v)) <= (2r-3)*n - 2*(r-2)",
                   (r - 1) * (deg_u + deg_v), "<=", (2 * r - 3) * n - 2 * (r - 2))
    )
    return tuple(chain)


def build_witness(
    g: LabelledGraph,
    t: LabelledTree,
    f: RootedForest,
    c: CutAnalysis,
    r: int,
) -> InfeasibilityWitness:
    """Assemble the counting record for a split with no exchange.

    Requires a stalled analysis (no candidate).  ``r`` must dominate the
    tree's degree vector so the per-vertex child counts stay below r.
    """
    if c.candidate is not None:
        raise ValueError("an exchange is available; nothing to witness")
    u, v = f.removed_edge
    deg_u, deg_v = g.degree(u), g.degree(v)
    chain = _witness_chain(r, f.size_u, f.size_v, c, deg_u, deg_v)
    n = t.n
    contradicts = False
    if n >= r + 1:
        contradicts = deg_u + deg_v >= degree_sum_threshold(n, r)
    return InfeasibilityWitness(
        u=u,
        v=v,
        r=r,
        size_u=f.size_u,
        size_v=f.size_v,
        hooks_u=len(c.hooks_u),
        bridges_u=len(c.bridges_u),
        hooks_v=len(c.hooks_v),
        bridges_v=len(c.bridges_v),
        u_nbrs_same=c.u_nbrs_same,
        u_nbrs_other=c.u_nbrs_other,
        v_nbrs_same=c.v_nbrs_same,
        v_nbrs_other=c.v_nbrs_other,
        degree_sum=deg_u + deg_v,
        chain=chain,
        contradicts_condition=contradicts,
        tree=t,
    )


def validate_witness(g: LabelledGraph, w: InfeasibilityWitness) -> bool:
    """Re-derive every witness count from the stored tree and the graph.

    Returns True only if the recorded split really stalls, every stored
    count matches a fresh computation, and each inequality of the chain
    holds arithmetically.
    """
    pair = normalized_edge(w.u, w.v)
    if pair not in set(w.tree.edges) or g.are_adjacent(*pair):
        return False
    try:
        f = orient_forest(w.tree, *pair)
    except ValueError:
        return False
    c = compute_cut_sets(g, f)
    if c.candidate is not None:
        return False
    if (f.size_u, f.size_v) != (w.size_u, w.size_v):
        return False
    counts_match = (
        (len(c.hooks_u), len(c.bridges_u), len(c.hooks_v), len(c.bridges_v))
        == (w.hooks_u, w.bridges_u, w.hooks_v, w.bridges_v)
        and (c.u_nbrs_same, c.u_nbrs_other, c.v_nbrs_same, c.v_nbrs_other)
        == (w.u_nbrs_same, w.u_nbrs_other, w.v_nbrs_same, w.v_nbrs_other)
    )
    if not counts_match:
        return False
    if g.degree(w.u) + g.degree(w.v) != w.degree_sum:
        return False
    fresh = _witness_chain(w.r, f.size_u, f.size_v, c, g.degree(w.u), g.degree(w.v))
    if fresh != w.chain:
        return False
    return all(ineq.holds for ineq in w.chain)


def find_spanning_tree(g: LabelledGraph, seq: DegreeSequence) -> SolveResult:
    """Search for a spanning tree of g with the exact degree vector seq.

    Starts from the canonical realization and exchanges away missing
    edges, smallest first, rebuilding the orientation from scratch each
    round.  Success is guaranteed whenever the graph meets the degree-sum
    threshold for r = max degree of seq; otherwise the loop still runs to
    exhaustion and reports the stall witness.
    """
    if g.n != seq.n:
        raise ValueError(f"graph order {g.n} != sequence length {seq.n}")
    r = max(2, seq.max_degree)
    t = realize_tree(seq)
    steps: list[ExchangeStep] = []
    missing = foreign_edges(g, t)
    while missing:
        u, v = missing[0]
        f = orient_forest(t, u, v)
        c = compute_cut_sets(g, f)
        if c.candidate is None:
            witness = build_witness(g, t, f, c, r)
            return SolveResult(tree=None, witness=witness, steps=tuple(steps))
        t = apply_exchange(t, c.candidate)
        if t.degree_vector() != seq.degrees:
            raise SolverInvariantError(f"exchange {c.candidate} changed the degree vector")
        still_missing = foreign_edges(g, t)
        if len(still_missing) >= len(missing):
            raise SolverInvariantError(
                f"exchange {c.candidate} did not reduce the missing-edge count {len(missing)}"
            )
        steps.append(ExchangeStep(exchange=c.candidate, phi_after=len(still_missing)))
        missing = still_missing
    return SolveResult(tree=t, witness=None, steps=tuple(steps))


def verify_tree(g: LabelledGraph, t: LabelledTree, seq: DegreeSequence) -> VerifyResult:
    """Independent post-check of a claimed solution.

    Confirms order, edge membership in the graph, spanning tree-ness, and
    the exact degree vector; reports the first failure found.
    """
    if t.n != g.n:
        return VerifyResult(False, f"order mismatch: tree {t.n}, graph {g.n}")
    if seq.n != g.n:
        return VerifyResult(False, f"order mismatch: sequence {seq.n}, graph {g.n}")
    for e in t.edges:
        if not g.are_adjacent(*e):
            return VerifyResult(False, f"edge {e} not in graph")
    defect = tree_defect(t)
    if defect is not None:
        return VerifyResult(False, defect)
    deg = t.degree_vector()
    for i, (have, want) in enumerate(zip(deg, seq.degrees)):
        if have != want:
            return VerifyResult(False, f"degree mismatch at vertex {i}: {have} != {want}")
    return VerifyResult(True)
