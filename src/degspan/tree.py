"""Labelled trees as graphs that keep every edge they are given, plus the tree-ness check."""

from collections.abc import Iterable

from .graph import LabelledGraph

__all__ = ["LabelledTree", "tree_defect"]


class LabelledTree(LabelledGraph):
    """Simple graph on vertices 0..n-1, n >= 1, normally a tree.

    It shares the graph's stored form and queries, and its empty
    ``__slots__`` keeps it a tuple without an instance ``__dict__``, so its
    fields stay read-only.  The container itself only enforces simple-graph
    sanity (range, no loops, no repeated edges), not acyclicity or
    connectivity, so callers can hold and inspect claimed trees that fail
    verification.
    """

    __slots__ = ()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabelledTree":
        """Build from pairs in any order and orientation; a repeated edge is an error."""
        if n < 1:
            raise ValueError("need at least one vertex")
        pairs = list(edges)
        t = super().from_edges(n, pairs)
        if sum(map(len, t.adjacency)) != 2 * len(pairs):
            raise ValueError("an edge is given more than once")
        return t


def tree_defect(t: LabelledTree) -> str | None:
    """Why t is not connected and acyclic on all n vertices, or None if it is."""
    n = t.n
    m = sum(map(len, t.adjacency)) // 2
    if m != n - 1:
        return f"edge count {m} != n - 1 = {n - 1}"
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, nbrs in enumerate(t.adjacency):
        for v in nbrs:
            if u < v:
                if v >= n:
                    return f"not a tree: vertex {v} out of range for n={n}"
                ru, rv = find(u), find(v)
                if ru == rv:
                    return f"not a tree: cycle through edge ({u}, {v})"
                parent[ru] = rv
            elif v < 0:
                return f"not a tree: vertex {v} out of range for n={n}"
    return None
