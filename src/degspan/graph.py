"""Labelled simple graphs: parsing, serialization, degree queries, random ensembles."""

import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from itertools import compress
from math import ceil
from operator import lt
from typing import Any, NamedTuple

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "GraphParseError",
    "MAX_N",
    "MAX_GENERATED_N",
    "LabelledGraph",
    "parse_graph",
    "serialize_graph",
    "min_nonadjacent_degree_sum",
    "normalized_edge",
    "bounded_int",
    "random_condition_graph",
]


MAX_N = 10**6
"""Largest vertex count ``parse_graph`` accepts; it is checked before any allocation."""

MAX_GENERATED_N = 2000
"""Largest order the generators build; their graphs are dense, so it is checked first."""


class GraphParseError(ValueError):
    """Malformed graph text; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def normalized_edge(u: int, v: int) -> Edge:
    """The pair with its smaller endpoint first."""
    return (u, v) if u < v else (v, u)


def _row_has(row: tuple[int, ...], v: int) -> bool:
    """True iff v is in ``row``, an ascending adjacency row, found by bisection."""
    i = bisect_left(row, v)
    return i < len(row) and row[i] == v


def _freeze(adjacency: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted, duplicate-free neighbour tuples from validated, symmetric lists.

    A list that is already strictly ascending, as every list built from a
    sorted edge list is, costs one O(deg) check and no sort.
    """
    return tuple(
        tuple(nbrs) if all(map(lt, nbrs, nbrs[1:])) else tuple(sorted(set(nbrs)))
        for nbrs in adjacency
    )


def _freeze_rows(rows: list[bytearray]) -> tuple[tuple[int, ...], ...]:
    """Neighbour tuples of symmetric 0/1 byte rows, cut from one shared tuple of all vertices."""
    vertices = tuple(range(len(rows)))
    return tuple(tuple(compress(vertices, row)) for row in rows)


class LabelledGraph(NamedTuple):
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adjacency`` holds one ascending neighbor tuple per vertex and is the
    only stored form: adjacency tests bisect, ``edges`` is derived from it,
    and every iteration order is deterministic.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabelledGraph":
        """Build a graph from pairs in any order and orientation; duplicates collapse.

        Raises ValueError for out-of-range endpoints or self-loops.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adjacency[u].append(v)
            adjacency[v].append(u)
        return cls(n=n, adjacency=_freeze(adjacency))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Normalized (u < v) pairs in sorted order."""
        return tuple([(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v])

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return len(self.adjacency[v])

    def degree_vector(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    def are_adjacent(self, u: int, v: int) -> bool:
        """True iff {u, v} is an edge; always False for u == v."""
        # One unpacking reads both fields: the oracle calls this for every
        # edge of every word it decodes, and a named field read is a call.
        n, adjacency = self
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"vertex {v if 0 <= u < n else u} out of range for n={n}")
        nbrs = adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def to_json_dict(self) -> dict[str, Any]:
        return {"n": self.n, "edges": self.edges}


def parse_graph(text: str) -> LabelledGraph:
    """Parse the edge-list file format.

    First non-comment line is the vertex count n, at most ``MAX_N``; every
    following non-comment line is ``u v`` with 0 <= u, v < n and u != v.
    Every number is a run of ASCII digits 0-9, nothing else.  Whole lines
    starting with '#' and blank lines are ignored.  Duplicate edge lines
    collapse to a single edge; self-loops are an error.

    A text in ``serialize_graph``'s exact layout of a dense graph is read
    in bulk by ``_read_serialized``.  Every other text, and every error,
    goes through the line loop below, so the messages and line numbers are
    the loop's alone.

    Each line is validated once and its edge goes straight into the
    neighbour lists.  Numbers are read by ``bounded_int``, so an oversized
    count or endpoint is rejected with its line number and without
    converting it or allocating for it.

    Endpoint tokens repeat across lines, so ``seen`` maps each token that
    has passed the full checks on an accepted edge line to its vertex.  A
    line is taken as an edge without further checks only when it is
    ASCII, splits into exactly two tokens, both are in ``seen`` and they
    name different vertices; that is exactly what the full checks would
    accept for it.  Every other line (the count, blanks, comments, a
    token's first appearance, every error) takes the full checks, so the
    accepted graphs and every error message and line number are those of
    the checks alone.  ``seen`` holds only tokens that occur in the text.
    """
    g = _read_serialized(text)
    if g is not None:
        return g
    n: int | None = None
    adjacency: list[list[int]] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 2 and raw.isascii():
            u = seen.get(parts[0])
            v = seen.get(parts[1])
            if u is not None and v is not None and u != v:
                adjacency[u].append(v)
                adjacency[v].append(u)
                continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            if not (line.isascii() and line.isdigit()):
                raise GraphParseError(f"expected vertex count, got {line!r}", lineno)
            n = bounded_int(line, MAX_N)
            if n is None:
                raise GraphParseError(f"vertex count exceeds the limit {MAX_N}", lineno)
            adjacency = [[] for _ in range(n)]
            continue
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        a, b = parts
        if not (line.isascii() and a.isdigit() and b.isdigit()):
            raise GraphParseError(f"endpoint not in digits 0-9 in {line!r}", lineno)
        u, v = bounded_int(a, n - 1), bounded_int(b, n - 1)
        if u is None or v is None:
            raise GraphParseError(f"vertex index out of range [0, {n}) in {line!r}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        adjacency[u].append(v)
        adjacency[v].append(u)
        seen[a] = u
        seen[b] = v
    if n is None:
        raise GraphParseError("missing vertex count line", 1)
    return LabelledGraph(n=n, adjacency=_freeze(adjacency))


_BLOCK = 1 << 13
"""About how many characters ``_read_serialized`` checks and splits at a time."""

_ROW_BYTES_PER_CHAR = 4
"""``_read_serialized`` allocates its n^2 row bytes only up to this many per input character."""


def _read_serialized(text: str) -> LabelledGraph | None:
    """The graph of a text in ``serialize_graph``'s exact layout, else None; never raises.

    The layout is the count line, then one ``u v`` line per edge, every
    line ended by a newline and every endpoint spelled ``str(i)`` for some
    i < n.  The edge lines are read in blocks cut after a newline.  A
    block of k lines is accepted when deleting its digits leaves exactly k
    copies of space-newline and it splits into 2k tokens: then every line
    is two runs of digits around one space.  Each token is looked up in
    one dict of the canonical names, so a leading zero, an out-of-range
    endpoint or any other spelling falls back to the line loop.  Edges set
    bytes in one row per vertex, so duplicates collapse; a set diagonal
    byte is a self-loop and falls back too.

    The rows cost n^2 bytes, so they are allocated only when n^2 is at
    most ``_ROW_BYTES_PER_CHAR`` bytes per character of the text.  Only
    dense graphs take this path, and its memory stays within a constant
    multiple of the input.  Blocks are kept small because their tokens
    outweigh the rows of a graph with a few hundred vertices.
    """
    end = text.find("\n")
    if end < 0 or not text.isascii():
        return None
    head = text[:end]
    n = bounded_int(head, MAX_N) if head.isdigit() else None
    if n is None or n * n > _ROW_BYTES_PER_CHAR * len(text):
        return None
    vertex = {str(i): i for i in range(n)}.__getitem__
    rows = [bytearray(n) for _ in range(n)]
    pos = end + 1
    while pos < len(text):
        cut = text.rfind("\n", pos, pos + _BLOCK) + 1
        if not cut:
            return None
        block = text[pos:cut]
        lines = block.count("\n")
        if block.encode().translate(None, b"0123456789") != b" \n" * lines:
            return None
        tokens = block.split()
        if len(tokens) != 2 * lines:
            return None
        ends = map(vertex, tokens)
        try:
            for u, v in zip(ends, ends):
                rows[u][v] = rows[v][u] = 1
        except KeyError:  # a token that is not a canonical name
            return None
        pos = cut
    if any(row[v] for v, row in enumerate(rows)):
        return None
    return LabelledGraph(n=n, adjacency=_freeze_rows(rows))


def bounded_int(digits: str, limit: int) -> int | None:
    """The value of a run of ASCII digits 0-9 if it is at most ``limit``, else None.

    Leading zeros are skipped and digit counts compared first, so ``int()``
    never converts a run with more digits than ``limit``.
    """
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(limit)):
        return None
    value = int(digits)
    return value if value <= limit else None


def serialize_graph(g: LabelledGraph) -> str:
    """Canonical text form of a graph or tree: vertex count, then its sorted edges."""
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def min_nonadjacent_degree_sum(g: LabelledGraph) -> tuple[Edge, int] | None:
    """Non-adjacent pair minimizing deg(u) + deg(v), with that sum.

    Ties break to the lexicographically smallest pair; returns None when
    the graph is complete (no non-adjacent pair exists).

    Two passes over per-degree buckets (each holding its vertices in index
    order) replace a scan of all n^2 pairs:

    1. The minimum sum S.  Visit u in ascending degree order and pair it
       with the first vertex in that order that is neither u nor one of
       its neighbours; at most deg(u) + 1 vertices are skipped.  Stop once
       2 deg(u) reaches the best sum so far.  The early stop is sound: a
       pair with an endpoint already visited was covered from that
       endpoint, whose partner had the least degree it could have; a pair
       of two unvisited vertices sums to at least 2 deg(u).
    2. The pair.  Visit u in index order and look for the smallest v > u
       in the bucket of degree S - deg(u) that is not a neighbour of u:
       bisect past u, then skip neighbours, at most deg(u) of them.  The
       first u that has such a v gives the lexicographically first pair.

    Pass 1 costs O(n + m).  Pass 2 costs one bisection per vertex and per
    skipped neighbour, so O(n log n) when few neighbours are skipped and
    O((n + m) log n) at worst.  Sums are exact integers.
    """
    adjacency = g.adjacency
    degree = [len(nbrs) for nbrs in adjacency]
    buckets: list[list[int]] = [[] for _ in range(g.n)]
    for v, d in enumerate(degree):
        buckets[d].append(v)
    order = [v for bucket in buckets for v in bucket]
    best = 2 * g.n  # above every degree sum
    for u in order:
        du = degree[u]
        if 2 * du >= best:
            break
        nbrs = set(adjacency[u])
        for w in order:
            if w != u and w not in nbrs:
                best = min(best, du + degree[w])
                break
    if best == 2 * g.n:
        return None
    for u in range(g.n):
        target = best - degree[u]
        if not 0 <= target < g.n:
            continue
        bucket, nbrs = buckets[target], adjacency[u]
        j = 0
        for i in range(bisect_right(bucket, u), len(bucket)):
            v = bucket[i]
            j = bisect_left(nbrs, v, j)
            if j == len(nbrs) or nbrs[j] != v:
                return (u, v), best
    raise AssertionError("unreachable: pass 1 found a pair with the minimum sum")


def random_condition_graph(n: int, r: int, seed: int) -> LabelledGraph:
    """Random graph whose non-adjacent pairs all meet the degree-sum bound for r.

    Starts from a random graph, then makes one repair sweep over vertex
    pairs, adding the edge wherever a non-adjacent pair falls below the
    bound.  Degrees only grow during the sweep, so a pair that meets the
    bound when visited still meets it at the end.  Deterministic in seed.
    One ``bytearray`` row per vertex holds the graph in about n^2 bytes;
    ``_freeze_rows`` turns them into neighbour tuples.
    """
    from .condition import degree_sum_threshold

    if not 4 <= n <= MAX_GENERATED_N:
        raise ValueError(f"need 4 <= n <= generator limit {MAX_GENERATED_N}, got {n}")
    if r < 2:
        raise ValueError("need r >= 2")
    need = ceil(degree_sum_threshold(n, r))  # an int sum is below the bound iff below this
    rng = random.Random(seed)
    p = rng.uniform(0.2, 0.8)
    rows = [bytearray(n) for _ in range(n)]
    for u in range(n):
        row = rows[u]
        for v in range(u + 1, n):
            if rng.random() < p:
                row[v] = rows[v][u] = 1
    degree = [row.count(1) for row in rows]
    for u in range(n):
        row = rows[u]
        for v in range(u + 1, n):
            if not row[v] and degree[u] + degree[v] < need:
                row[v] = rows[v][u] = 1
                degree[u] += 1
                degree[v] += 1
    return LabelledGraph(n=n, adjacency=_freeze_rows(rows))
