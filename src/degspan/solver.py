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

``find_spanning_tree`` decodes the canonical Prüfer word straight into one
list adjacency, which each exchange edits at its four endpoints.  Each
exchange makes one breadth-first search from both ends of the missing edge
(``_split``), then walks u's side's bridges in ascending order, v's only
when u's has none, and stops at the first that is also a hook
(``_exchange``).  So an exchange costs O(n) and builds no hook or bridge
set and no record; only a stall builds those sets, a RootedForest and a
CutAnalysis, for the witness.  ``orient_forest``, ``compute_cut_sets`` and
``apply_exchange`` take the same steps on LabelledTree values, and
``validate_witness`` rebuilds a witness with them and compares.
"""

from collections.abc import Collection, Sequence
from typing import Any, NamedTuple

from .condition import degree_sum_threshold
from .graph import Edge, LabelledGraph, _row_has, normalized_edge
from .sequences import DegreeSequence, _accept_all, canonical_word, prufer_edges
from .sequences import realize_tree  # noqa: F401 -- unused, but bench/tracing.py wraps it here
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
    "foreign_edges",
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


class RootedForest(NamedTuple):
    """A tree split at one edge, each side oriented away from its root.

    ``component[x]`` is 0 on the side rooted at u (the smaller endpoint of
    the removed edge) and 1 on the side rooted at v.  ``parent`` is None
    exactly at the two roots; following it from anywhere reaches a root.
    """

    removed_edge: Edge
    component: tuple[int, ...]
    parent: tuple[int | None, ...]
    size_u: int
    size_v: int


class Exchange(NamedTuple):
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
        return self._asdict()


class ExchangeStep(NamedTuple):
    exchange: Exchange
    phi_after: int  # missing-edge count once the exchange is applied

    def to_json_dict(self) -> dict[str, Any]:
        return {**self.exchange.to_json_dict(), "phi_after": self.phi_after}


class CutAnalysis(NamedTuple):
    """Hook and bridge sets of one split, with each root's same-side degree.

    For the side rooted at u: ``hooks_u`` are tree parents of vertices y
    in that component with uy a graph edge; ``bridges_u`` are vertices of
    that component graph-adjacent to v, so v has len(bridges_u) neighbours
    on u's side.  ``u_nbrs_same`` counts u's neighbours on its own side.
    """

    hooks_u: frozenset[int]
    bridges_u: frozenset[int]
    hooks_v: frozenset[int]
    bridges_v: frozenset[int]
    u_nbrs_same: int
    v_nbrs_same: int
    candidate: Exchange | None


class Inequality(NamedTuple):
    """One evaluated comparison of a witness chain."""

    label: str
    lhs: int
    op: str  # "<=" or "=="
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs if self.op == "<=" else self.lhs == self.rhs

    def to_json_dict(self) -> dict[str, Any]:
        return {**self._asdict(), "holds": self.holds}


class InfeasibilityWitness(NamedTuple):
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
    u_nbrs_same: int  # u's other-side neighbours are bridges_v, v's are bridges_u
    v_nbrs_same: int
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
                "u_nbrs_other": self.bridges_v,
                "v_nbrs_same": self.v_nbrs_same,
                "v_nbrs_other": self.bridges_u,
            },
            "degree_sum": self.degree_sum,
            "contradicts_condition": self.contradicts_condition,
            "inequalities": [ineq.to_json_dict() for ineq in self.chain],
            "tree": self.tree.to_json_dict(),
        }


class SolveResult(NamedTuple):
    """Either a spanning tree of the graph or the witness of a stall."""

    tree: LabelledTree | None
    witness: InfeasibilityWitness | None
    steps: tuple[ExchangeStep, ...]

    @property
    def ok(self) -> bool:
        return self.tree is not None


class VerifyResult(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def foreign_edges(g: LabelledGraph, t: LabelledTree) -> tuple[Edge, ...]:
    """Tree edges absent from the graph, ascending (phi); reads ``t.adjacency`` with u < v.

    Each tree row is looked up in the graph's row by bisection; a tree
    edge at a vertex past the graph's order raises IndexError.
    """
    out: list[Edge] = []
    for u, nbrs in enumerate(t.adjacency):
        if nbrs:
            row = g.adjacency[u]
            for v in nbrs:
                if u < v and not _row_has(row, v):
                    out.append((u, v))
    return tuple(out)


_Split = tuple[list[int], list[int], list[int]]


def _split(adj: Sequence[Sequence[int]], u: int, v: int) -> _Split | None:
    """The tree adjacency ``adj`` cut at its edge (u, v), each side searched from its root.

    ``adj``, the solver's lists or a tree's neighbour tuples, still holds
    the edge and is only read.  Returns u's side and v's side as vertex
    lists in search order, and one parent list in which each root is its
    own parent; None when a vertex is reachable from neither root.
    """
    parent = [-1] * len(adj)
    parent[u] = u
    parent[v] = v
    sides = []
    for root in (u, v):
        side = [root]
        for x in side:
            for y in adj[x]:
                if parent[y] < 0:
                    parent[y] = x
                    side.append(y)
        sides.append(side)
    side_u, side_v = sides
    if len(side_u) + len(side_v) != len(adj):
        return None
    return side_u, side_v, parent


def _forest(u: int, v: int, split: _Split) -> RootedForest:
    """The RootedForest of a ``_split`` at (u, v), u < v: the roots' parents become None."""
    side_u, side_v, parent = split
    component = [0] * len(parent)
    for x in side_v:
        component[x] = 1
    oriented: list[int | None] = list(parent)
    oriented[u] = oriented[v] = None
    return RootedForest(
        removed_edge=(u, v),
        component=tuple(component),
        parent=tuple(oriented),
        size_u=len(side_u),
        size_v=len(side_v),
    )


def orient_forest(t: LabelledTree, u: int, v: int) -> RootedForest:
    """Remove tree edge (u, v) and orient both components away from its ends.

    The smaller end is root u (side 0) in either argument order.  Raises
    ValueError unless (u, v) is a tree edge whose split reaches every vertex.
    """
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise ValueError(f"vertices ({u}, {v}) out of range")
    if v not in t.adjacency[u]:
        raise ValueError(f"({u}, {v}) is not a tree edge")
    u, v = normalized_edge(u, v)
    split = _split(t.adjacency, u, v)
    if split is None:
        raise ValueError("input is not a tree: some vertices unreachable from the split")
    return _forest(u, v, split)


def _select(
    g: LabelledGraph,
    near: int,
    far: int,
    vertices: Collection[int],
    parent: Sequence[int | None],
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Hooks, bridges (graph neighbours of ``far``) and ``same`` (those of ``near``) of a side.

    ``vertices`` is the side of a split rooted at ``near``, and ``parent``
    orients it toward ``near``.  Only a witness counts these sets.
    """
    mine = frozenset(vertices)
    same = mine.intersection(g.adjacency[near])
    # same never holds a root (no loops), so every parent read is an int
    return frozenset(map(parent.__getitem__, same)), mine.intersection(g.adjacency[far]), same


def _exchange(
    g: LabelledGraph,
    side: str,
    near: int,
    far: int,
    mine: Collection[int],
    parent: Sequence[int | None],
    adj: Sequence[Sequence[int]],
) -> Exchange | None:
    """The exchange on the side ``mine`` of a split rooted at ``near``, or None.

    ``parent`` orients that side toward ``near`` and ``adj[w]`` lists at
    least the children of w.  Walks the far root's graph row in ascending
    order, skipping vertices off the side, and stops at the first w that
    is also a hook: a parent of some y that ``near`` could adopt (near-y a
    graph edge).  The exchange drops (w, y) for the smallest such y.
    """
    on_side = set(mine)
    near_row = g.adjacency[near]
    for w in g.adjacency[far]:
        if w not in on_side:
            continue
        y = -1
        for c in adj[w]:
            if parent[c] == w and (y < 0 or c < y) and _row_has(near_row, c):
                y = c
        if y >= 0:
            return Exchange(side=side, drop_foreign=normalized_edge(near, far),
                            drop_tree=(w, y), add_1=(near, y), add_2=(far, w))
    return None


def compute_cut_sets(g: LabelledGraph, f: RootedForest) -> CutAnalysis:
    """Hook/bridge sets of the split plus the first applicable exchange.

    The sets come from ``_select`` and the candidate from ``_exchange``,
    the u side's exchange when it has one.  The roots themselves can be
    hooks, but never bridges while (u, v) is missing from the graph.
    """
    u, v = f.removed_edge
    if not g.are_adjacent(u, v) and (u in g.adjacency[v] or v in g.adjacency[u]):
        raise SolverInvariantError(f"a root is a bridge across the missing edge ({u}, {v})")
    comp, parent = f.component, f.parent
    side_u = [x for x, c in enumerate(comp) if c == 0]
    side_v = [x for x, c in enumerate(comp) if c == 1]
    # the tree's adjacency is not at hand, so w's children come from parent
    children: list[list[int]] = [[] for _ in comp]
    for x, p in enumerate(parent):
        if p is not None:
            children[p].append(x)
    hooks_u, bridges_u, same_u = _select(g, u, v, side_u, parent)
    hooks_v, bridges_v, same_v = _select(g, v, u, side_v, parent)
    return CutAnalysis(
        hooks_u=hooks_u,
        bridges_u=bridges_u,
        hooks_v=hooks_v,
        bridges_v=bridges_v,
        u_nbrs_same=len(same_u),
        v_nbrs_same=len(same_v),
        candidate=(_exchange(g, "u", u, v, side_u, parent, children)
                   or _exchange(g, "v", v, u, side_v, parent, children)),
    )


def _rewire(adj: list[list[int]], x: Exchange) -> None:
    """Edit the tree adjacency ``adj`` in place along an exchange.

    Raises SolverInvariantError, leaving ``adj`` untouched, when a dropped
    edge is not in the tree or an added edge already is.
    """
    drops = (x.drop_foreign, x.drop_tree)
    adds = (x.add_1, x.add_2)
    ends = (*x.drop_foreign, *x.drop_tree, *x.add_1, *x.add_2)
    if min(ends) < 0 or max(ends) >= len(adj):
        raise SolverInvariantError(f"exchange {x} names a vertex outside the tree")
    for a, b in drops:
        if b not in adj[a]:
            raise SolverInvariantError(f"exchange {x} drops ({a}, {b}), not a tree edge")
    for a, b in adds:
        if b in adj[a]:
            raise SolverInvariantError(f"exchange {x} adds ({a}, {b}), already a tree edge")
    for a, b in drops:
        adj[a].remove(b)
        adj[b].remove(a)
    for a, b in adds:
        adj[a].append(b)
        adj[b].append(a)


def _tree_of(adj: list[list[int]]) -> LabelledTree:
    """Freeze the solver's tree adjacency, which its invariant checks keep simple."""
    return LabelledTree(n=len(adj), adjacency=tuple(tuple(sorted(a)) for a in adj))


def apply_exchange(t: LabelledTree, x: Exchange) -> LabelledTree:
    """Rewire the tree along an exchange; degrees are untouched.

    The four endpoints each lose one incident edge and gain one, and the
    dropped split edge separates the components that the two added edges
    reconnect, so the result is again a spanning tree.  A stale exchange,
    one that does not fit ``t``, raises SolverInvariantError.
    """
    adj = [list(a) for a in t.adjacency]
    _rewire(adj, x)
    return _tree_of(adj)


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
         len(c.hooks_u & c.bridges_u), c.u_nbrs_same),
        ("v", "u", size_v, len(c.hooks_v), len(c.bridges_v),
         len(c.hooks_v & c.bridges_v), c.v_nbrs_same),
    )
    for near, far, size, hooks, bridges, overlap, near_same in sides:
        # the far root's neighbours on this side are this side's bridges
        chain.append(
            Inequality(f"|hooks_{near} & bridges_{near}| == 0", overlap, "==", 0)
        )
        chain.append(
            Inequality(f"|bridges_{near}| == {far}_nbrs_other", bridges, "==", bridges)
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
                near_same + (r - 1) * bridges, "<=", (r - 1) * size,
            )
        )
        chain.append(
            Inequality(
                f"(r-1)*({near}_nbrs_same + {far}_nbrs_other) <= (2r-3)*size_{near} - (r-2)",
                (r - 1) * (near_same + bridges), "<=", (2 * r - 3) * size - (r - 2),
            )
        )
    chain.append(Inequality("deg(u) == u_nbrs_same + u_nbrs_other",
                            deg_u, "==", c.u_nbrs_same + len(c.bridges_v)))
    chain.append(Inequality("deg(v) == v_nbrs_same + v_nbrs_other",
                            deg_v, "==", c.v_nbrs_same + len(c.bridges_u)))
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
        v_nbrs_same=c.v_nbrs_same,
        degree_sum=deg_u + deg_v,
        chain=chain,
        contradicts_condition=contradicts,
        tree=t,
    )


def validate_witness(g: LabelledGraph, w: InfeasibilityWitness) -> bool:
    """Rebuild the witness from its stored tree and the graph, and compare.

    Returns True only if the tree is a spanning tree on g's vertices,
    (u, v) with u < v is a tree edge missing from g whose split really
    stalls, the witness that ``build_witness`` makes of that split equals
    ``w`` in every field, and each inequality of the chain holds
    arithmetically.
    """
    if w.tree.n != g.n or w.r < 2 or w.u >= w.v or tree_defect(w.tree) is not None:
        return False
    try:
        f = orient_forest(w.tree, w.u, w.v)
    except ValueError:
        return False
    c = compute_cut_sets(g, f)
    if g.are_adjacent(w.u, w.v) or c.candidate is not None:
        return False
    return build_witness(g, w.tree, f, c, w.r) == w and all(i.holds for i in w.chain)


def find_spanning_tree(g: LabelledGraph, seq: DegreeSequence) -> SolveResult:
    """Search for a spanning tree of g with the exact degree vector seq.

    Decodes the canonical word into one list adjacency of the tree and
    exchanges away missing edges, smallest first.  Each exchange edits that
    adjacency at its four endpoints, and the ascending list of missing
    edges loses the one or two tree edges the exchange drops, so an
    exchange costs O(n) and the LabelledTree is built once, at the end or
    at a stall.  Success is guaranteed whenever the graph meets the
    degree-sum threshold for r = max degree of seq; otherwise the loop
    still runs to exhaustion and reports the stall witness.
    """
    if g.n != seq.n:
        raise ValueError(f"graph order {g.n} != sequence length {seq.n}")
    r = max(2, seq.max_degree)
    adj: list[list[int]] = [[] for _ in range(g.n)]
    missing: list[Edge] = []
    for a, b in prufer_edges(canonical_word(seq), g.n, _accept_all):
        adj[a].append(b)
        adj[b].append(a)
        if not _row_has(g.adjacency[a], b):
            missing.append(normalized_edge(a, b))
    missing.sort()
    steps: list[ExchangeStep] = []
    degrees = seq.degrees
    while missing:
        u, v = missing[0]
        split = _split(adj, u, v)
        if split is None:
            raise SolverInvariantError(f"vertices unreachable from both ends of {missing[0]}")
        side_u, side_v, parent = split
        # each root is on its own side, so it is a bridge iff the other root sees it
        if g.are_adjacent(v, u) or g.are_adjacent(u, v):
            raise SolverInvariantError(f"a root is a bridge across the missing edge ({u}, {v})")
        x = (_exchange(g, "u", u, v, side_u, parent, adj)
             or _exchange(g, "v", v, u, side_v, parent, adj))
        if x is None:
            f = _forest(u, v, split)
            witness = build_witness(g, _tree_of(adj), f, compute_cut_sets(g, f), r)
            return SolveResult(tree=None, witness=witness, steps=tuple(steps))
        for a, b in (x.add_1, x.add_2):
            if not g.are_adjacent(a, b):
                raise SolverInvariantError(f"exchange {x} adds ({a}, {b}), not a graph edge")
        _rewire(adj, x)
        for z in (*x.drop_foreign, *x.drop_tree):
            if len(adj[z]) != degrees[z]:
                raise SolverInvariantError(f"exchange {x} changed the degree vector at {z}")
        del missing[0]
        drop_tree = normalized_edge(*x.drop_tree)
        if drop_tree in missing:
            missing.remove(drop_tree)
        steps.append(ExchangeStep(exchange=x, phi_after=len(missing)))
    return SolveResult(tree=_tree_of(adj), witness=None, steps=tuple(steps))


def verify_tree(g: LabelledGraph, t: LabelledTree, seq: DegreeSequence) -> VerifyResult:
    """Independent post-check of a claimed solution.

    Confirms order, edge membership in the graph (the ``foreign_edges`` scan),
    spanning tree-ness and the exact degree vector; reports the first failure.
    """
    if t.n != g.n:
        return VerifyResult(False, f"order mismatch: tree {t.n}, graph {g.n}")
    if seq.n != g.n:
        return VerifyResult(False, f"order mismatch: sequence {seq.n}, graph {g.n}")
    missing = foreign_edges(g, t)
    if missing:
        return VerifyResult(False, f"edge {missing[0]} not in graph")
    defect = tree_defect(t)
    if defect is not None:
        return VerifyResult(False, defect)
    deg = t.degree_vector()
    for i, (have, want) in enumerate(zip(deg, seq.degrees)):
        if have != want:
            return VerifyResult(False, f"degree mismatch at vertex {i}: {have} != {want}")
    return VerifyResult(True)
