"""Labelled simple graphs: parsing, serialization, degree queries, random ensembles."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "GraphParseError",
    "LabelledGraph",
    "parse_graph",
    "serialize_edge_list",
    "serialize_graph",
    "min_nonadjacent_degree_sum",
    "normalized_edge",
    "random_condition_graph",
]


class GraphParseError(ValueError):
    """Malformed graph text; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def normalized_edge(u: int, v: int) -> Edge:
    """The pair with its smaller endpoint first."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class LabelledGraph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``edges`` holds normalized (u < v) pairs in sorted order; ``adjacency``
    holds one ascending neighbor tuple per vertex, so adjacency tests
    bisect and every iteration order is deterministic.
    """

    n: int
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> LabelledGraph:
        """Build a graph, normalizing edges and collapsing duplicates.

        Raises ValueError for out-of-range endpoints or self-loops.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edge_set: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            edge_set.add(normalized_edge(u, v))
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in edge_set:
            adjacency[u].append(v)
            adjacency[v].append(u)
        return cls(
            n=n,
            edges=tuple(sorted(edge_set)),
            adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adjacency),
        )

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def degree_vector(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def are_adjacent(self, u: int, v: int) -> bool:
        """True iff {u, v} is an edge; always False for u == v."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def is_complete(self) -> bool:
        return 2 * len(self.edges) == self.n * (self.n - 1)


def parse_graph(text: str) -> LabelledGraph:
    """Parse the edge-list file format.

    First non-comment line is the vertex count n; every following
    non-comment line is ``u v`` with 0 <= u, v < n and u != v.  Lines
    starting with '#' and blank lines are ignored.  Duplicate edge lines
    collapse to a single edge; self-loops are an error.
    """
    n: int | None = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphParseError(f"expected vertex count, got {line!r}", lineno) from None
            if n < 0:
                raise GraphParseError("vertex count must be non-negative", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer endpoint in {line!r}", lineno) from None
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphParseError(f"vertex index out of range [0, {n}) in {line!r}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        edges.append((u, v))
    if n is None:
        raise GraphParseError("missing vertex count line", 1)
    return LabelledGraph.from_edges(n, edges)


def serialize_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """Canonical text form: vertex count, then sorted normalized edges."""
    pairs = sorted(normalized_edge(u, v) for u, v in edges)
    lines = [str(n)] + [f"{u} {v}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def serialize_graph(g: LabelledGraph) -> str:
    return serialize_edge_list(g.n, g.edges)


def min_nonadjacent_degree_sum(g: LabelledGraph) -> tuple[Edge, int] | None:
    """Non-adjacent pair minimizing deg(u) + deg(v), with that sum.

    Ties break to the lexicographically smallest pair; returns None when
    the graph is complete (no non-adjacent pair exists).
    """
    best: tuple[Edge, int] | None = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.are_adjacent(u, v):
                continue
            s = g.degree(u) + g.degree(v)
            if best is None or s < best[1]:
                best = ((u, v), s)
    return best


def random_condition_graph(n: int, r: int, seed: int) -> LabelledGraph:
    """Random graph whose non-adjacent pairs all meet the degree-sum bound for r.

    Starts from a random graph, then makes one repair sweep over vertex
    pairs, adding the edge wherever a non-adjacent pair falls below the
    bound.  Degrees only grow during the sweep, so a pair that meets the
    bound when visited still meets it at the end.  Deterministic in seed.
    """
    from .condition import degree_sum_threshold

    if n < 4:
        raise ValueError("need n >= 4")
    if r < 2:
        raise ValueError("need r >= 2")
    bound = degree_sum_threshold(n, r)
    rng = random.Random(seed)
    p = rng.uniform(0.2, 0.8)
    adjacency: list[set[int]] = [set() for _ in range(n)]

    def add(u: int, v: int) -> None:
        adjacency[u].add(v)
        adjacency[v].add(u)

    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                add(u, v)
    for u in range(n):
        for v in range(u + 1, n):
            if v not in adjacency[u] and len(adjacency[u]) + len(adjacency[v]) < bound:
                add(u, v)
    return LabelledGraph.from_edges(
        n, ((u, v) for u in range(n) for v in adjacency[u] if u < v)
    )
