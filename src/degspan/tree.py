"""Labelled trees as graphs that keep every edge they are given, plus the tree-ness check."""

from collections.abc import Iterable

from .graph import LabelledGraph, _int_or_none, _row_has

__all__ = ["LabelledTree", "tree_defect"]


class LabelledTree(LabelledGraph):
    """Simple graph on vertices 0..n-1, n >= 1, normally a tree.

    It shares the graph's stored form and queries, and its empty
    ``__slots__`` keeps it a tuple without an instance ``__dict__``, so its
    fields stay read-only.  Only ``from_edges`` enforces simple-graph
    sanity (range, no loops, no repeated edges); the constructor takes any
    rows and ``tree_defect`` judges any rows, so callers can hold and
    inspect claimed trees that fail verification.
    """

    __slots__ = ()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabelledTree":
        """Build from pairs in any order and orientation; a repeated edge is an error."""
        m = _int_or_none(n)  # None: LabelledGraph.from_edges refuses it below
        if m is not None and m < 1:
            raise ValueError("need at least one vertex")
        pairs = list(edges)
        t = super().from_edges(n, pairs)
        if sum(map(len, t.adjacency)) != 2 * len(pairs):
            raise ValueError("an edge is given more than once")
        return t


def tree_defect(t: LabelledTree) -> str | None:
    """Why t is not connected and acyclic on all n vertices, or None if it is.

    Any rows are judged, not only those ``from_edges`` builds.  They must
    hold 2(n - 1) entries in all, each row strictly ascending, and each
    entry below its row's vertex must be mirrored in that vertex's row.
    With the cycle check on the other entries, where a self-loop is a
    cycle, that makes every row mirror every other: the rows are one
    simple graph.
    """
    n, adjacency = t.n, t.adjacency
    entries = sum(map(len, adjacency))
    if entries % 2:
        return f"not a tree: the rows hold {entries} entries, an odd number"
    if entries != 2 * (n - 1):
        return f"edge count {entries // 2} != n - 1 = {n - 1}"
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, nbrs in enumerate(adjacency):
        last = -1
        for v in nbrs:
            if u <= v:
                if v >= n:
                    return f"not a tree: vertex {v} out of range for n={n}"
                ru, rv = find(u), find(v)
                if ru == rv:
                    return f"not a tree: cycle through edge ({u}, {v})"
                parent[ru] = rv
            elif v < 0:
                return f"not a tree: vertex {v} out of range for n={n}"
            elif not _row_has(adjacency[v], u):
                return f"not a tree: vertex {u} lists {v}, but vertex {v} does not list {u}"
            if v <= last:
                return f"not a tree: row of vertex {u} is not strictly ascending at {v}"
            last = v
    return None
