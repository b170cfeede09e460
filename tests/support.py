"""Shared builders, enumerators, strategies and reference implementations for tests."""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from collections.abc import Iterator, Sequence

from hypothesis import strategies as st

from degspan import (
    DegreeSequence,
    LabelledGraph,
    LabelledTree,
    degree_sum_threshold,
    realize_tree,
    validate_degree_sequence,
)
from degspan.solver import (
    CutAnalysis,
    Exchange,
    ExchangeStep,
    RootedForest,
    SolveResult,
    SolverInvariantError,
    build_witness,
)
from degspan.tree import tree_defect


def complete_graph(n: int) -> LabelledGraph:
    return LabelledGraph.from_edges(n, itertools.combinations(range(n), 2))


def path_graph(n: int) -> LabelledGraph:
    return LabelledGraph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> LabelledGraph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return LabelledGraph.from_edges(n, edges)


def dense_host(n: int, r: int, p: float, rng: random.Random, repair: bool) -> LabelledGraph:
    """G(n, p); with ``repair``, then an edge at each non-adjacent pair below the r bound.

    Degrees only grow during the repair, so a repaired host meets the bound.
    """
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            adjacency[u].add(v)
            adjacency[v].add(u)
    if repair:
        bound = degree_sum_threshold(n, r)
        for u, v in itertools.combinations(range(n), 2):
            if v not in adjacency[u] and len(adjacency[u]) + len(adjacency[v]) < bound:
                adjacency[u].add(v)
                adjacency[v].add(u)
    return LabelledGraph.from_edges(n, ((u, v) for u in range(n) for v in adjacency[u] if u < v))


def low_degree_sequence(g: LabelledGraph, r: int, rng: random.Random) -> DegreeSequence:
    """Degree r on the lowest-degree host vertices, ties broken at random."""
    deg = g.degree_vector()
    order = sorted(range(g.n), key=lambda v: (deg[v], rng.random()))
    k, rest = divmod(g.n - 2, r - 1)
    degrees = [1] * g.n
    for v in order[:k]:
        degrees[v] = r
    degrees[order[k]] += rest
    return validate_degree_sequence(degrees)


def reference_prufer_edges(word: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Reference heap decoder, in ``prufer_edges``'s edge order.

    Pops the smallest current leaf from a heap for each entry, then joins
    the last two leaves.
    """
    degree = [1] * n
    for w in word:
        degree[w] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[int, int]] = []
    for w in word:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, w))
        degree[w] -= 1
        if degree[w] == 1:
            heapq.heappush(leaves, w)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return edges


def prufer_encode(tree: LabelledTree) -> tuple[int, ...]:
    """Reference code word of a labelled tree; inverse of ``prufer_decode``.

    Raises ValueError when the input is not a tree (cycle or disconnected).
    """
    if tree_defect(tree) is not None:
        raise ValueError("input is not a tree (cycle or disconnected)")
    n = tree.n
    if n == 2:
        return ()
    adj = [set(a) for a in tree.adjacency]
    leaves = [v for v in range(n) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    word: list[int] = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        parent = adj[leaf].pop()
        adj[parent].discard(leaf)
        word.append(parent)
        if len(adj[parent]) == 1:
            heapq.heappush(leaves, parent)
    return tuple(word)


def compute_cut_sets(g: LabelledGraph, f: RootedForest) -> CutAnalysis:
    """Reference hook/bridge sets of a split, one comprehension per set."""
    u, v = f.side_u[0], f.side_v[0]
    on_u, on_v, parent = set(f.side_u), set(f.side_v), f.parent
    u_same = [y for y in g.adjacency[u] if y in on_u]
    v_same = [y for y in g.adjacency[v] if y in on_v]
    hooks_u = frozenset(parent[y] for y in u_same)
    hooks_v = frozenset(parent[y] for y in v_same)
    bridges_u = frozenset([x for x in g.adjacency[v] if x in on_u])
    bridges_v = frozenset([x for x in g.adjacency[u] if x in on_v])
    if not g.are_adjacent(u, v) and (u in bridges_u or v in bridges_v):
        raise SolverInvariantError(f"a root is a bridge across the missing edge ({u}, {v})")
    return CutAnalysis(
        hooks_u=hooks_u,
        bridges_u=bridges_u,
        hooks_v=hooks_v,
        bridges_v=bridges_v,
        u_nbrs_same=len(u_same),
        v_nbrs_same=len(v_same),
    )


def reference_exchange(g: LabelledGraph, f: RootedForest, sides: str = "uv") -> Exchange | None:
    """Reference exchange rule at a split, from the reference sets; None at a stall.

    Scans ``sides`` in order ("u" before "v" by default, or one side
    alone), and on the first side whose hooks meet its bridges picks the
    smallest such w, then the smallest of its children adoptable by the
    near root.
    """
    c = compute_cut_sets(g, f)
    u, v = f.side_u[0], f.side_v[0]
    for side in sides:
        if side == "u":
            near, far, both = u, v, c.hooks_u & c.bridges_u
        else:
            near, far, both = v, u, c.hooks_v & c.bridges_v
        if both:
            w = min(both)
            y = min(y for y in g.adjacency[near] if f.parent[y] == w)
            return Exchange(
                side=side, drop_foreign=(u, v), drop_tree=(w, y), add_1=(near, y), add_2=(far, w)
            )
    return None


def reference_split(t: LabelledTree, u: int, v: int) -> RootedForest:
    """The tree t cut at its edge (u, v), u < v, by a breadth-first search from both ends."""
    parent = [-1] * t.n
    parent[u], parent[v] = u, v
    sides = []
    for root in (u, v):
        side, queue = [root], deque([root])
        while queue:
            x = queue.popleft()
            for y in t.adjacency[x]:
                if parent[y] == -1:
                    parent[y] = x
                    side.append(y)
                    queue.append(y)
        sides.append(tuple(side))
    if sorted(sides[0] + sides[1]) != list(range(t.n)):
        raise ValueError(f"the split at ({u}, {v}) does not reach every vertex exactly once")
    return RootedForest(sides[0], sides[1], tuple(parent))


def reference_rewire(t: LabelledTree, x: Exchange) -> LabelledTree:
    """The tree t less the exchange's two dropped edges plus its two added ones, as an edge set."""
    edges = set(t.edges)
    for a, b in (x.drop_foreign, x.drop_tree):
        edges.remove((min(a, b), max(a, b)))
    for a, b in (x.add_1, x.add_2):
        if (min(a, b), max(a, b)) in edges:
            raise SolverInvariantError(f"exchange {x} adds ({a}, {b}), already a tree edge")
        edges.add((min(a, b), max(a, b)))
    return LabelledTree.from_edges(t.n, edges)


def reference_find_spanning_tree(g: LabelledGraph, seq: DegreeSequence) -> SolveResult:
    """Reference exchange loop that searches the whole tree at every exchange.

    Starts from ``realize_tree``, the tree the solver decodes, and for the
    smallest missing edge splits the tree afresh (``reference_split``),
    takes ``reference_exchange`` and applies it (``reference_rewire``),
    until no edge is missing or the rule stalls.
    """
    def missing(t: LabelledTree) -> list[tuple[int, int]]:
        return [e for e in t.edges if not g.are_adjacent(*e)]

    t = realize_tree(seq)
    steps: list[ExchangeStep] = []
    while edges := missing(t):
        f = reference_split(t, *edges[0])
        x = reference_exchange(g, f)
        if x is None:
            witness = build_witness(g, t, f)
            return SolveResult(tree=None, witness=witness, steps=tuple(steps))
        t = reference_rewire(t, x)
        steps.append(ExchangeStep(exchange=x, phi_after=len(missing(t))))
    return SolveResult(tree=t, witness=None, steps=tuple(steps))


def all_degree_sequences(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Every positive sequence of length n with entries <= cap summing to 2(n-1)."""
    cap = min(cap, n - 1)
    target = 2 * (n - 1)

    def rec(prefix: list[int], remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        lo = max(1, remaining - cap * (slots - 1))
        hi = min(cap, remaining - (slots - 1))
        for d in range(lo, hi + 1):
            prefix.append(d)
            yield from rec(prefix, remaining - d, slots - 1)
            prefix.pop()

    yield from rec([], target, n)


def all_labelled_graphs(n: int) -> Iterator[LabelledGraph]:
    """All 2^C(n,2) labelled graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield LabelledGraph.from_edges(
            n, (p for i, p in enumerate(pairs) if bits >> i & 1)
        )


def matchings(n: int) -> list[frozenset[tuple[int, int]]]:
    """All matchings of the complete graph on n vertices (including empty)."""
    pairs = list(itertools.combinations(range(n), 2))
    out: list[frozenset[tuple[int, int]]] = [frozenset()]

    def rec(start: int, used: frozenset[int], current: frozenset[tuple[int, int]]) -> None:
        for j in range(start, len(pairs)):
            a, b = pairs[j]
            if a in used or b in used:
                continue
            nxt = current | {pairs[j]}
            out.append(nxt)
            rec(j + 1, used | {a, b}, nxt)

    rec(0, frozenset(), frozenset())
    return out


@st.composite
def graphs(draw, min_n: int = 2, max_n: int = 9) -> LabelledGraph:
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return LabelledGraph.from_edges(n, (p for p, keep in zip(pairs, mask) if keep))


@st.composite
def prufer_words(draw, min_n: int = 2, max_n: int = 12) -> tuple[int, tuple[int, ...]]:
    n = draw(st.integers(min_n, max_n))
    word = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return n, tuple(word)


def _draw_capped_degrees(draw, n: int, cap: int | None) -> DegreeSequence:
    limit = n - 1 if cap is None else min(cap, n - 1)
    degrees = [1] * n
    for _ in range(n - 2):
        open_idx = [i for i in range(n) if degrees[i] < limit]
        degrees[draw(st.sampled_from(open_idx))] += 1
    return validate_degree_sequence(degrees)


@st.composite
def degree_sequences(draw, min_n: int = 2, max_n: int = 10, cap: int | None = None) -> DegreeSequence:
    n = draw(st.integers(min_n, max_n))
    return _draw_capped_degrees(draw, n, cap)


@st.composite
def graph_with_sequence(
    draw, min_n: int = 2, max_n: int = 8, cap: int | None = 3
) -> tuple[LabelledGraph, DegreeSequence]:
    """A graph and a valid capped degree sequence on the same vertex set."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = LabelledGraph.from_edges(n, (p for p, keep in zip(pairs, mask) if keep))
    return g, _draw_capped_degrees(draw, n, cap)
