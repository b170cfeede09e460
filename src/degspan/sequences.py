"""Prescribed tree degree sequences and the Prüfer codec realizing them.

A list of positive integers is realizable as the degree vector of a
labelled tree exactly when it sums to 2(n-1).  The codec fixes one such
tree deterministically: vertex i appears degree(i) - 1 times in the code
word, and decoding follows the smallest-leaf-first rule.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from .graph import Edge
from .tree import LabelledTree, is_tree

__all__ = [
    "SequenceError",
    "DegreeSequence",
    "validate_degree_sequence",
    "parse_sequence_literal",
    "canonical_word",
    "prufer_decode",
    "prufer_edges",
    "prufer_encode",
    "realize_tree",
    "random_degree_sequence",
]


class SequenceError(ValueError):
    """Invalid target degree sequence; ``code`` tells which rule failed.

    Codes: "length" (fewer than two entries), "entry" (a zero or negative
    degree), "sum" (total is not 2(n-1)).
    """

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class DegreeSequence:
    """Validated per-vertex target degrees for a spanning tree."""

    degrees: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def max_degree(self) -> int:
        return max(self.degrees)


def validate_degree_sequence(degrees: Iterable[int]) -> DegreeSequence:
    """Check positivity and the 2(n-1) sum; return the validated sequence.

    These two conditions are exactly tree realizability, and they force
    every entry to be at most n - 1.
    """
    ds = tuple(int(d) for d in degrees)
    n = len(ds)
    if n < 2:
        raise SequenceError(f"need at least two entries, got {n}", code="length")
    for i, d in enumerate(ds):
        if d < 1:
            raise SequenceError(f"entry {d} at position {i} is not positive", code="entry")
    total = sum(ds)
    if total != 2 * (n - 1):
        raise SequenceError(
            f"entries sum to {total}, expected 2(n-1) = {2 * (n - 1)}", code="sum"
        )
    return DegreeSequence(degrees=ds)


def parse_sequence_literal(text: str) -> DegreeSequence:
    """Parse a comma-separated degree literal such as "3,1,1,1"."""
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise SequenceError("empty sequence literal", code="length")
    try:
        degrees = [int(p) for p in parts]
    except ValueError:
        raise SequenceError(f"non-integer entry in {text!r}", code="entry") from None
    return validate_degree_sequence(degrees)


def canonical_word(seq: DegreeSequence) -> tuple[int, ...]:
    """Ascending code word with vertex i repeated degrees[i] - 1 times."""
    word: list[int] = []
    for v, d in enumerate(seq.degrees):
        word.extend([v] * (d - 1))
    return tuple(word)


def prufer_edges(
    word: Sequence[int], n: int, keep: Callable[[int, int], bool]
) -> list[Edge] | None:
    """Edges of the tree coded by ``word``, or None at the first edge ``keep`` rejects.

    Decoding joins the smallest current leaf to each word entry in turn
    and finally joins the last two leaves; vertex v ends with degree
    1 + multiplicity of v in the word.  Entries must lie in [0, n) and
    the word must have length n - 2.
    """
    degree = [1] * n
    for w in word:
        degree[w] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[Edge] = []
    for w in word:
        leaf = heapq.heappop(leaves)
        if not keep(leaf, w):
            return None
        edges.append((leaf, w))
        degree[w] -= 1
        if degree[w] == 1:
            heapq.heappush(leaves, w)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    if not keep(a, b):
        return None
    edges.append((a, b))
    return edges


def _accept_all(u: int, v: int) -> bool:
    return True


def prufer_decode(word: Sequence[int], n: int) -> LabelledTree:
    """Unique labelled tree on n vertices whose code is ``word``."""
    if n < 2:
        raise ValueError("need n >= 2")
    if len(word) != n - 2:
        raise ValueError(f"word length {len(word)} != n - 2 = {n - 2}")
    for w in word:
        if not (0 <= w < n):
            raise ValueError(f"word entry {w} out of range [0, {n})")
    return LabelledTree.from_edges(n, prufer_edges(word, n, _accept_all))


def prufer_encode(tree: LabelledTree) -> tuple[int, ...]:
    """Code word of a labelled tree; inverse of :func:`prufer_decode`.

    Raises ValueError when the input is not a tree (cycle or disconnected).
    """
    if not is_tree(tree):
        raise ValueError("input is not a tree (cycle or disconnected)")
    n = tree.n
    if n == 2:
        return ()
    adj = tree.adjacency_sets()
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


def realize_tree(seq: DegreeSequence) -> LabelledTree:
    """Deterministic labelled tree with exactly the prescribed degrees.

    Decodes the canonical ascending word, so repeated runs on the same
    sequence always start from the same tree.
    """
    return prufer_decode(canonical_word(seq), seq.n)


def random_degree_sequence(n: int, r: int, rng: random.Random) -> DegreeSequence:
    """Random valid sequence on n vertices with entries in [1, r].

    Starts from all ones and spreads the remaining n - 2 degree units over
    positions still below the cap.  Coverage of degree patterns matters
    here, not uniformity over sequences.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > 2 and r < 2:
        raise ValueError("need r >= 2 for n > 2")
    cap = min(r, n - 1)
    degrees = [1] * n
    open_slots = list(range(n))
    for _ in range(n - 2):
        i = rng.randrange(len(open_slots))
        v = open_slots[i]
        degrees[v] += 1
        if degrees[v] == cap:
            open_slots[i] = open_slots[-1]
            open_slots.pop()
    return validate_degree_sequence(degrees)
