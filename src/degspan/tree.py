"""Labelled trees as plain edge containers, plus tree-ness checks."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .graph import Edge, normalized_edge

__all__ = ["LabelledTree", "is_tree", "tree_defect"]


@dataclass(frozen=True)
class LabelledTree:
    """Edge set on vertices 0..n-1, normally a tree.

    The container itself only enforces simple-graph sanity (range, no
    loops, no duplicates), not acyclicity or connectivity, so callers can
    hold and inspect claimed trees that fail verification.
    """

    n: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> LabelledTree:
        if n < 1:
            raise ValueError("need at least one vertex")
        seen: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = normalized_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n=n, edges=tuple(sorted(seen)))

    def degree_vector(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def adjacency_sets(self) -> list[set[int]]:
        """Fresh mutable adjacency sets (callers may edit their copy)."""
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def tree_defect(t: LabelledTree) -> str | None:
    """Why t is not connected and acyclic on all n vertices, or None if it is."""
    if len(t.edges) != t.n - 1:
        return f"edge count {len(t.edges)} != n - 1 = {t.n - 1}"
    parent = list(range(t.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in t.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return f"not a tree: cycle through edge ({u}, {v})"
        parent[ru] = rv
    return None


def is_tree(t: LabelledTree) -> bool:
    """True iff t is connected and acyclic on all n vertices."""
    return tree_defect(t) is None
