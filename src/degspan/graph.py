"""Labelled simple graphs: parsing, serialization, degree and degree-sum queries."""

from bisect import bisect_left
from collections.abc import Iterable
from itertools import compress
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


def _int_or_none(x: Any) -> int | None:
    """``int(x)`` when that equals x, so True reads as 1 and 2.0 as 2; else None."""
    try:
        i = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == x else None


def _named_int(name: str, x: Any) -> int:
    """x read by ``_int_or_none``'s rule; anything else raises a ValueError naming x."""
    i = _int_or_none(x)
    if i is None:
        raise ValueError(f"{name} = {x!r} is not an integer")
    return i


def _row_has(row: tuple[int, ...], v: int) -> bool:
    """True iff v is in the ascending row ``row``, found by one bisection."""
    i = bisect_left(row, v)
    return i < len(row) and row[i] == v


def _freeze(adjacency: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Sorted, duplicate-free neighbour tuples from validated, symmetric lists."""
    return tuple(tuple(sorted(set(nbrs))) for nbrs in adjacency)


def _freeze_rows(rows: list[bytearray]) -> tuple[tuple[int, ...], ...]:
    """Neighbour tuples of symmetric 0/1 byte rows, cut from one shared tuple of all vertices."""
    vertices = tuple(range(len(rows)))
    return tuple(tuple(compress(vertices, row)) for row in rows)


class LabelledGraph(NamedTuple):
    """Immutable simple undirected graph on vertices 0..n-1.

    ``adjacency`` holds one ascending neighbor tuple per vertex and is the
    only stored form: ``n`` is its row count, ``edges`` is derived from it,
    adjacency tests bisect, and every iteration order is deterministic.
    ``LabelledGraph(rows)`` trusts its rows to ascend and to mirror each
    other; ``from_edges`` and ``parse_graph`` build such rows.  Rows that
    do not mirror can reach the solver's root-bridge guards, which raise
    SolverInvariantError; ``verify_tree`` takes a tree edge only when both
    rows list it, and ``validate_witness`` checks its roots' rows.  A row
    that does not ascend misleads every bisection, with no error of its
    own: ``find_spanning_tree`` can raise ValueError ("an exchange is
    available; nothing to witness") and ``check_condition`` can report an
    edge as its worst non-adjacent pair.
    """

    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabelledGraph":
        """Build a graph from pairs in any order and orientation; duplicates collapse.

        ``n`` and each endpoint x are read as ``int(x)`` when that equals x
        (so True reads as 1 and 2.0 as 2), and refused otherwise.  Raises
        ValueError for such values, out-of-range endpoints or self-loops.
        """
        m = _int_or_none(n)
        if m is None:
            raise ValueError(f"vertex count {n!r} is not an integer")
        n = m
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            a, b = _int_or_none(u), _int_or_none(v)
            if a is None or b is None:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an integer")
            u, v = a, b
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adjacency[u].append(v)
            adjacency[v].append(u)
        return cls(_freeze(adjacency))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Normalized (u < v) pairs in sorted order."""
        return tuple([(u, v) for u, nbrs in enumerate(self.adjacency) for v in nbrs if u < v])

    def _vertex(self, v: Any) -> int:
        """v read by the integer rule (ValueError), then range-checked (IndexError)."""
        i = _named_int("vertex", v)
        if not 0 <= i < len(self.adjacency):
            raise IndexError(f"vertex {i} out of range for n={self.n}")
        return i

    def degree(self, v: int) -> int:
        """The degree of v, read as ``int(v)`` when that equals v (so 1.0 reads as 1)."""
        return len(self.adjacency[self._vertex(v)])

    def degree_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def are_adjacent(self, u: int, v: int) -> bool:
        """True iff {u, v} is an edge; always False for u == v.  Reads u, then v, as ``degree``."""
        return _row_has(self.adjacency[self._vertex(u)], self._vertex(v))

    def to_json_dict(self) -> dict[str, Any]:
        return {"n": self.n, "edges": self.edges}


_BLOCK = 1 << 13
"""About how many characters ``parse_graph`` reads at a time after the vertex count."""

_ROW_BYTES_PER_CHAR = 4
"""Edges go into n^2 row bytes only up to this many per input character, else into lists."""


def parse_graph(text: str) -> LabelledGraph:
    """Parse the edge-list file format; raises GraphParseError naming the first bad line.

    First non-comment line is the vertex count n, at most ``MAX_N``; every
    following non-comment line is ``u v`` with 0 <= u, v < n and u != v.
    Every number is a run of ASCII digits 0-9, nothing else.  Whole lines
    starting with '#' and blank lines are ignored.  Duplicate edge lines
    collapse to a single edge; self-loops are an error.

    The text is read once.  Lines up to the vertex count are read one at a
    time, then blocks of about ``_BLOCK`` characters cut after a newline; a
    longer line, or a last line with no newline, ends its block.  CRLF
    becomes LF in a block that holds a carriage return, unless a carriage
    return would be left over: that block is split as it stands.  Rows are a
    ``bytearray`` of n bytes per vertex when n^2 is at most
    ``_ROW_BYTES_PER_CHAR`` bytes per input character, so only a dense
    graph's cost n^2; else they are lists.

    A block of byte rows in ``serialize_graph``'s layout is set at once:
    deleting its digits leaves one space-newline per line, it splits into
    two tokens per line, and each token is a key of one dict of the names
    ``str(i)``, i < n.  A token that is not such a name, or a self-loop,
    stops the setting and sends the block line by line; bytes already set
    are set again.  Every other block goes line by line: each line is
    checked once, and ``bounded_int`` rejects an oversized number without
    converting it.  Every block before the one that holds an error is free
    of errors, so the line checks raise at the first bad line.
    """
    n: int | None = None
    rows: list[Any] = []
    vertex = None  # the canonical names' lookup, set only for byte rows
    lineno = pos = 0
    while pos < len(text):
        end = pos + (1 if n is None else _BLOCK)
        cut = text.rfind("\n", pos, end) + 1 or text.find("\n", end) + 1 or len(text)
        block = text[pos:cut]
        pos = cut
        if not block.endswith("\n"):  # the last line; an added newline renumbers no line
            block += "\n"
        # "\r\r\n" is two line breaks, which folding would merge into one
        if "\r" in block and "\r" not in (folded := block.replace("\r\n", "\n")):
            block = folded
        lines = block.count("\n")
        if (vertex and block.isascii()
                and block.encode().translate(None, b"0123456789") == b" \n" * lines
                and len(tokens := block.split()) == 2 * lines):
            ends = map(vertex, tokens)
            try:
                for u, v in zip(ends, ends):
                    if u == v:
                        break
                    rows[u][v] = rows[v][u] = 1
                else:
                    lineno += lines
                    continue
            except KeyError:  # a token that is not a canonical name
                pass
        for lineno, raw in enumerate(block.splitlines(), start=lineno + 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if n is None:
                if not (line.isascii() and line.isdigit()):
                    raise GraphParseError(f"expected vertex count, got {line!r}", lineno)
                n = bounded_int(line, MAX_N)
                if n is None:
                    raise GraphParseError(f"vertex count exceeds the limit {MAX_N}", lineno)
                if n * n <= _ROW_BYTES_PER_CHAR * len(text):
                    rows = [bytearray(n) for _ in range(n)]
                    vertex = {str(i): i for i in range(n)}.__getitem__
                else:
                    rows = [[] for _ in range(n)]
                continue
            parts = line.split()
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
            if vertex:
                rows[u][v] = rows[v][u] = 1
            else:
                rows[u].append(v)
                rows[v].append(u)
    if n is None:
        raise GraphParseError("missing vertex count line", 1)
    return LabelledGraph(_freeze_rows(rows) if vertex else _freeze(rows))


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
    the graph is complete.  A pair is adjacent only when both rows list it.

    One pass visits u in ascending (degree, index) order, pairs it with the
    first vertex in that order that is neither u nor adjacent to it, and
    keeps the least (sum, smaller end, larger end).  Any other partner of u
    with the same sum has that degree and a larger index, so it makes a
    larger pair: the first worst pair is found from whichever of its ends
    comes first.  The pass stops at the first u of degree n - 1, or whose
    2 deg(u) exceeds the best sum, or equals it while the best pair starts
    before u, since a later pair of that sum joins two vertices of u's
    degree at or after u.  Each u skips at most deg(u) vertices, two
    bisections each: O((n + m) log n) at worst.  Sums are exact integers.
    """
    adjacency = g.adjacency
    n = len(adjacency)
    degree = [len(row) for row in adjacency]
    order = sorted(range(n), key=degree.__getitem__)
    best = (2 * n, n, n)  # above every (sum, smaller end, larger end)
    for u in order:
        du = degree[u]
        if du == n - 1 or 2 * du > best[0] or 2 * du == best[0] and best[1] < u:
            break
        row = adjacency[u]
        for w in order:
            if w != u and not (_row_has(row, w) and _row_has(adjacency[w], u)):
                best = min(best, (du + degree[w], *normalized_edge(u, w)))
                break
    if best[1] == n:
        return None
    s, u, v = best
    return (u, v), s
