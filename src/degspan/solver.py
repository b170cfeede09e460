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
list adjacency, which each exchange edits at its four endpoints, and one
parent list: the decode hangs each leaf from its word entry, orienting the
tree toward n - 1.  Each exchange keeps that orientation: it reroots it at
the missing edge's parent end, stamps the child end's subtree as that end's
side, walks u's side's bridges in ascending order, v's only when u's has
none, stops at the first that is also a hook (``_exchange``) and re-hangs
the moved subtrees.  So no exchange searches the whole tree or builds a
hook or bridge set or a record; only a stall builds those sets, for the
witness.  One search (``_split``) checks the kept orientation, at a stall
or once a found tree took an exchange, and its RootedForest is the split
that ``build_witness(g, t, f)`` counts with ``_select`` on each side.
``validate_witness`` splits the stored tree the same way and compares the
witness it rebuilds there; only the loop chooses an exchange.

The loops that run once per tree edge, the start's decode, ``_exchange``'s
hook test and ``foreign_edges``, test each edge by an inline bisection of
its graph row, so a solve and its ``verify_tree`` make no Python call per
tree edge; ``_row_has`` serves the loop's four checks per exchange, the
witness and the step layer.

``orient_forest``, ``compute_cut_sets``, ``apply_exchange`` and
``CutAnalysis``, at the end of the module and outside ``__all__``, are
kept only for the tests and ``bench/tracing.py``; no code here calls them.
"""

from bisect import bisect_left
from collections.abc import Sequence
from typing import Any, NamedTuple

from .condition import degree_sum_threshold
from .graph import Edge, LabelledGraph, _row_has, normalized_edge
from .sequences import DegreeSequence, canonical_word, prufer_edges
from .sequences import realize_tree  # noqa: F401 -- unused, but bench/tracing.py wraps it here
from .tree import LabelledTree, tree_defect

__all__ = [
    "RootedForest",
    "Exchange",
    "ExchangeStep",
    "Inequality",
    "InfeasibilityWitness",
    "SolveResult",
    "SolverInvariantError",
    "VerifyResult",
    "foreign_edges",
    "build_witness",
    "validate_witness",
    "find_spanning_tree",
    "verify_tree",
]


class SolverInvariantError(RuntimeError):
    """A property the exchange argument guarantees failed: a solver bug."""


class RootedForest(NamedTuple):
    """A tree cut at its edge (side_u[0], side_v[0]), each side oriented away from its root.

    ``side_u`` and ``side_v`` list each side's vertices in search order,
    each opening with its root.  Each root is its own ``parent``;
    following ``parent`` from anywhere else reaches the root of its side.
    """

    side_u: tuple[int, ...]
    side_v: tuple[int, ...]
    parent: tuple[int, ...]


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

    A tree edge (u, v) is present only when both graph rows list it, each
    found by an inline bisection, so rows that do not mirror each other
    cannot vouch for an edge.  A tree edge at a vertex past the graph's
    order raises IndexError.
    """
    out: list[Edge] = []
    rows = g.adjacency
    for u, nbrs in enumerate(t.adjacency):
        if nbrs:
            row = rows[u]
            for v in nbrs:
                if u < v:
                    i = bisect_left(row, v)
                    if i < len(row) and row[i] == v:
                        back = rows[v]
                        i = bisect_left(back, u)
                        if i < len(back) and back[i] == u:
                            continue
                    out.append((u, v))
    return tuple(out)


def _split(adj: Sequence[Sequence[int]], u: int, v: int) -> RootedForest | None:
    """The tree adjacency ``adj`` cut at its edge (u, v), each side searched from its root.

    ``adj``, the solver's lists or a tree's neighbour tuples, still holds
    the edge and is only read.  Returns the RootedForest whose ``side_u``
    opens with u and ``side_v`` with v, or None when a vertex is reachable
    from neither root.  The exchange loop splits only to check itself, at
    a stall or its end.
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
    return RootedForest(tuple(side_u), tuple(side_v), tuple(parent))


def _select(
    g: LabelledGraph, far: int, side: Sequence[int], parent: Sequence[int]
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Hooks, bridges (graph neighbours of ``far``) and ``same`` (those of the root) of a side.

    ``side`` is a side of a split, opening with its root ``near``, and
    ``parent`` orients it toward ``near``.  Only a witness counts these sets.
    """
    mine = frozenset(side)
    same = mine.intersection(g.adjacency[side[0]])
    return frozenset(map(parent.__getitem__, same)), mine.intersection(g.adjacency[far]), same


def _exchange(
    g: LabelledGraph,
    near: int,
    far: int,
    label: Sequence[int],
    tag: int,
    parent: Sequence[int],
    adj: Sequence[Sequence[int]],
) -> Exchange | None:
    """The exchange on the side of a split rooted at ``near``, side "u" if near < far, or None.

    The side holds the vertices x with ``label[x] == tag`` just when
    ``near`` does, and ``parent`` orients it toward ``near`` (the roots'
    own entries are read only when near-far is a graph edge).  Walks the
    far root's graph row in ascending order, skipping vertices off the
    side, and stops at the first w that is also a hook: a parent of some
    y in ``adj[w]`` that ``near`` could adopt (near-y a graph edge).  The
    exchange drops (w, y) for the smallest such y.  Only the loop calls it.
    """
    near_row, inside = g.adjacency[near], label[near] == tag
    size = len(near_row)
    for w in g.adjacency[far]:
        if (label[w] == tag) != inside:
            continue
        y = -1
        for c in adj[w]:
            if parent[c] == w and (y < 0 or c < y):
                i = bisect_left(near_row, c)
                if i < size and near_row[i] == c:
                    y = c
        if y >= 0:
            return Exchange(side="u" if near < far else "v",
                            drop_foreign=normalized_edge(near, far),
                            drop_tree=(w, y), add_1=(near, y), add_2=(far, w))
    return None


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
    return LabelledTree(tuple(map(tuple, map(sorted, adj))))


def _witness_chain(
    r: int,
    counts: Sequence[tuple[int, int, int, int]],
    deg_u: int,
    deg_v: int,
) -> tuple[Inequality, ...]:
    """The inequalities of a stall from each side's (size, hooks, bridges, same) counts."""
    (size_u, _, bridges_u, same_u), (size_v, _, bridges_v, same_v) = counts
    n = size_u + size_v
    chain: list[Inequality] = []
    for (near, far), (size, hooks, bridges, same) in zip(("uv", "vu"), counts):
        # a stall's hooks and bridges are disjoint, and the far root's
        # neighbours on this side are this side's bridges
        chain += (
            Inequality(f"|hooks_{near} & bridges_{near}| == 0", 0, "==", 0),
            Inequality(f"|bridges_{near}| == {far}_nbrs_other", bridges, "==", bridges),
            Inequality(f"{near}_nbrs_same <= (r-1)*|hooks_{near}|",
                       same, "<=", (r - 1) * hooks),
            Inequality(f"|hooks_{near}| + |bridges_{near}| <= size_{near}",
                       hooks + bridges, "<=", size),
            Inequality(f"{near}_nbrs_same <= size_{near} - 1", same, "<=", size - 1),
            Inequality(f"{near}_nbrs_same + (r-1)*{far}_nbrs_other <= (r-1)*size_{near}",
                       same + (r - 1) * bridges, "<=", (r - 1) * size),
            Inequality(
                f"(r-1)*({near}_nbrs_same + {far}_nbrs_other) <= (2r-3)*size_{near} - (r-2)",
                (r - 1) * (same + bridges), "<=", (2 * r - 3) * size - (r - 2),
            ),
        )
    return (
        *chain,
        Inequality("deg(u) == u_nbrs_same + u_nbrs_other", deg_u, "==", same_u + bridges_v),
        Inequality("deg(v) == v_nbrs_same + v_nbrs_other", deg_v, "==", same_v + bridges_u),
        Inequality("(r-1)*(deg(u)+deg(v)) <= (2r-3)*n - 2*(r-2)",
                   (r - 1) * (deg_u + deg_v), "<=", (2 * r - 3) * n - 2 * (r - 2)),
    )


def build_witness(g: LabelledGraph, t: LabelledTree, f: RootedForest) -> InfeasibilityWitness:
    """Assemble the counting record of the split ``f`` of the tree ``t``, which has no exchange.

    Counts each side's hooks, bridges and same-side neighbours with
    ``_select``, and requires a stall: raises ValueError when a side's
    hooks meet its bridges.  The pair is the split's roots, the sizes its
    side lengths, and r the tree's largest degree, at least 2, so each
    vertex has fewer than r children.
    """
    u, v, r = f.side_u[0], f.side_v[0], max(2, *map(len, t.adjacency))
    counts = []
    for far, side in ((v, f.side_u), (u, f.side_v)):
        hooks, bridges, same = _select(g, far, side, f.parent)
        if hooks & bridges:
            raise ValueError("an exchange is available; nothing to witness")
        counts.append((len(side), len(hooks), len(bridges), len(same)))
    (size_u, hooks_u, bridges_u, same_u), (size_v, hooks_v, bridges_v, same_v) = counts
    deg_u, deg_v = g.degree(u), g.degree(v)
    return InfeasibilityWitness(
        u=u,
        v=v,
        r=r,
        size_u=size_u,
        size_v=size_v,
        hooks_u=hooks_u,
        bridges_u=bridges_u,
        hooks_v=hooks_v,
        bridges_v=bridges_v,
        u_nbrs_same=same_u,
        v_nbrs_same=same_v,
        degree_sum=deg_u + deg_v,
        chain=_witness_chain(r, counts, deg_u, deg_v),
        contradicts_condition=t.n >= r + 1 and deg_u + deg_v >= degree_sum_threshold(t.n, r),
        tree=t,
    )


def validate_witness(g: LabelledGraph, w: InfeasibilityWitness) -> bool:
    """Rebuild the witness from its stored tree and the graph, and compare.

    Returns True only if the tree is a spanning tree on g's vertices,
    0 <= u < v < n, (u, v) is a tree edge, the graph rows of u and v
    mirror (each entry is in range and lists that root back), (u, v) is
    missing from g, ``build_witness`` takes the ``_split`` at (u, v) as a
    stall (hooks and bridges disjoint on each side; no exchange is walked)
    and makes ``w`` of it in every field, r too (the tree's largest
    degree, at least 2), and each inequality of the chain holds.
    """
    n, rows, adj = g.n, g.adjacency, w.tree.adjacency
    if w.tree.n != n or not 0 <= w.u < w.v < n or tree_defect(w.tree) is not None:
        return False
    if not _row_has(adj[w.u], w.v) or (f := _split(adj, w.u, w.v)) is None:
        return False
    if not all(0 <= x < n and _row_has(rows[x], z) for z in (w.u, w.v) for x in rows[z]):
        return False
    try:
        rebuilt = build_witness(g, w.tree, f)
    except ValueError:
        return False
    return not _row_has(rows[w.u], w.v) and rebuilt == w and all(i.holds for i in w.chain)


def _reroot(parent: list[int], x: int) -> None:
    """Root the in-tree ``parent`` (roots are their own parents) at x by reversing x's path to
    the root.  Ends on any list: past a repeat it retraces its reversed steps back to x."""
    prev = x
    while parent[x] != x:
        parent[x], prev, x = prev, x, parent[x]
    parent[x] = prev


def _check_kept(f: RootedForest | None, parent: list[int], c: int) -> None:
    """Raise SolverInvariantError unless the split ``f`` at (p, c) orients the tree as
    ``parent``, which is rooted at p."""
    if f is None or f.parent != (*parent[:c], c, *parent[c + 1:]):
        raise SolverInvariantError("the kept orientation does not span the tree")


def find_spanning_tree(g: LabelledGraph, seq: DegreeSequence) -> SolveResult:
    """Search for a spanning tree of g with the exact degree vector seq.

    Decodes the canonical word into one list adjacency of the tree and its
    parents toward n - 1, and exchanges away missing edges, smallest first.
    Each exchange edits that adjacency at its four endpoints and the kept
    orientation along two tree paths, and the ascending list of missing
    edges loses the one or two tree edges the exchange drops, so no
    exchange searches the whole tree and the LabelledTree is built once,
    at the end or at a stall.  Success is guaranteed whenever the graph
    meets the degree-sum threshold for r = max degree of seq; otherwise the
    loop still runs to exhaustion and reports the stall witness.
    """
    if g.n != seq.n:
        raise ValueError(f"graph order {g.n} != sequence length {seq.n}")
    rows = g.adjacency
    adj: list[list[int]] = [[] for _ in range(g.n)]
    parent = list(range(g.n))
    missing: list[Edge] = []
    for a, b in prufer_edges(canonical_word(seq), seq.degrees):
        adj[a].append(b)
        adj[b].append(a)
        parent[a] = b
        row = rows[a]
        i = bisect_left(row, b)
        if i == len(row) or row[i] != b:
            missing.append(normalized_edge(a, b))
    missing.sort()
    steps: list[ExchangeStep] = []
    degrees, stamp = seq.degrees, [0] * g.n
    while missing:
        u, v = missing[0]
        p, c = (u, v) if parent[v] == u else (v, u)
        _reroot(parent, p)
        # checked after the reroot, so that the walk below ends on a corrupt orientation too
        if parent[c] != p or parent[p] != p:
            raise SolverInvariantError(f"missing edge {missing[0]} is not a parent-child pair")
        # c's subtree is c's side; p's side is every vertex left unstamped
        tag = len(steps) + 1
        stamp[c] = tag
        below = [c]
        for a in below:
            for b in adj[a]:
                if parent[b] == a:
                    stamp[b] = tag
                    below.append(b)
        # each root is on its own side, so it is a bridge iff the other root sees it
        if _row_has(rows[v], u) or _row_has(rows[u], v):
            raise SolverInvariantError(f"a root is a bridge across the missing edge ({u}, {v})")
        x = (_exchange(g, u, v, stamp, tag, parent, adj)
             or _exchange(g, v, u, stamp, tag, parent, adj))
        if x is None:
            _check_kept(f := _split(adj, u, v), parent, c)
            witness = build_witness(g, _tree_of(adj), f)
            return SolveResult(tree=None, witness=witness, steps=tuple(steps))
        for a, b in (x.add_1, x.add_2):
            if not _row_has(rows[a], b):
                raise SolverInvariantError(f"exchange {x} adds ({a}, {b}), not a graph edge")
        _rewire(adj, x)
        for z in (*x.drop_foreign, *x.drop_tree):
            if len(adj[z]) != degrees[z]:
                raise SolverInvariantError(f"exchange {x} changed the degree vector at {z}")
        # y's subtree hangs from the near end; c's side now meets p's at w
        w, y = x.drop_tree
        if x.add_1[0] == p:
            parent[y], parent[c] = p, w
        else:
            parent[y] = parent[c] = c
            _reroot(parent, w)
            parent[w] = p
        del missing[0]
        drop_tree = normalized_edge(w, y)
        if drop_tree in missing:
            missing.remove(drop_tree)
        steps.append(ExchangeStep(exchange=x, phi_after=len(missing)))
    if steps:
        _check_kept(_split(adj, p, adj[p][0]), parent, adj[p][0])
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
    if deg != tuple(seq.degrees):  # one C-level compare; walk only to name the first mismatch
        for i, (have, want) in enumerate(zip(deg, seq.degrees)):
            if have != want:
                return VerifyResult(False, f"degree mismatch at vertex {i}: {have} != {want}")
    return VerifyResult(True)


# The step layer, outside __all__: kept only for the tests and bench/tracing.py,
# which wraps the three functions by name; no code above calls them.


def orient_forest(t: LabelledTree, u: int, v: int) -> RootedForest:
    """Remove tree edge (u, v) and orient both components away from its ends.

    Returns the ``_split`` at the edge, whose ``side_u`` opens with the
    smaller end in either argument order.  Raises ValueError unless (u, v)
    is a tree edge whose split reaches every vertex.
    """
    if not (0 <= u < t.n and 0 <= v < t.n):
        raise ValueError(f"vertices ({u}, {v}) out of range")
    if not _row_has(t.adjacency[u], v):
        raise ValueError(f"({u}, {v}) is not a tree edge")
    u, v = normalized_edge(u, v)
    f = _split(t.adjacency, u, v)
    if f is None:
        raise ValueError("input is not a tree: some vertices unreachable from the split")
    return f


class CutAnalysis(NamedTuple):
    """Hook and bridge sets of one split, with each root's same-side degree.

    For the side rooted at u: ``hooks_u`` are tree parents of vertices y
    in that component with uy a graph edge; ``bridges_u`` are vertices of
    that component graph-adjacent to v, so v has len(bridges_u) neighbours
    on u's side.  ``u_nbrs_same`` counts u's neighbours on its own side.
    The split stalls iff each side's hooks and bridges are disjoint.
    """

    hooks_u: frozenset[int]
    bridges_u: frozenset[int]
    hooks_v: frozenset[int]
    bridges_v: frozenset[int]
    u_nbrs_same: int
    v_nbrs_same: int


def compute_cut_sets(g: LabelledGraph, f: RootedForest) -> CutAnalysis:
    """The hook, bridge and same-side sets a witness counts at the split ``f``.

    The split is cut at (u, v) = (f.side_u[0], f.side_v[0]), and each
    side's sets come from ``_select``; no exchange is chosen here.  The
    roots themselves can be hooks, but never bridges while (u, v) is
    missing from the graph.
    """
    u, v = f.side_u[0], f.side_v[0]
    if _row_has(g.adjacency[v], u) and not _row_has(g.adjacency[u], v):
        raise SolverInvariantError(f"a root is a bridge across the missing edge ({u}, {v})")
    hooks_u, bridges_u, same_u = _select(g, v, f.side_u, f.parent)
    hooks_v, bridges_v, same_v = _select(g, u, f.side_v, f.parent)
    return CutAnalysis(hooks_u, bridges_u, hooks_v, bridges_v, len(same_u), len(same_v))


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
