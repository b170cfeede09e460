"""Prescribed tree degree sequences and the Prüfer decoder realizing them.

A list of positive integers is realizable as the degree vector of a
labelled tree exactly when it sums to 2(n-1).  The decoder fixes one such
tree deterministically: vertex i appears degree(i) - 1 times in the code
word, and decoding follows the smallest-leaf-first rule.
"""

import random
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .graph import MAX_N, Edge, _int_or_none, _named_int, bounded_int
from .tree import LabelledTree

__all__ = [
    "SequenceError",
    "DegreeSequence",
    "validate_degree_sequence",
    "parse_sequence_literal",
    "canonical_word",
    "prufer_edges",
    "realize_tree",
    "random_degree_sequence",
]


class SequenceError(ValueError):
    """Invalid target degree sequence; ``code`` tells which rule failed.

    Codes: "length" (fewer than two entries, or over ``MAX_N``), "entry"
    (a literal field that is not digits 0-9 or is over ``MAX_N``, or a
    non-integral, zero or negative degree), "sum" (total is not 2(n-1)).
    """

    def __init__(self, message: str, code: str) -> None:
        super().__init__(message)
        self.code = code


class DegreeSequence(NamedTuple):
    """Validated per-vertex target degrees for a spanning tree."""

    degrees: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.degrees)


def validate_degree_sequence(degrees: Iterable[int]) -> DegreeSequence:
    """Check for positive integers summing to 2(n-1); return the validated sequence.

    These conditions are exactly tree realizability, and they force
    every entry to be at most n - 1.  A tuple of ``int`` is kept as given;
    an entry ``int()`` cannot convert is "not an integer" like 2.7.
    """
    raw = tuple(degrees)
    n = len(raw)
    if n < 2:
        raise SequenceError(f"need at least two entries, got {n}", code="length")
    ds = raw if all(type(d) is int for d in raw) else tuple(map(_int_or_none, raw))
    for i, (x, d) in enumerate(zip(raw, ds)):
        if d is None:
            raise SequenceError(f"entry {x!r} at position {i} is not an integer", code="entry")
        if d < 1:
            raise SequenceError(f"entry {d} at position {i} is not positive", code="entry")
    total = sum(ds)
    if total != 2 * (n - 1):
        raise SequenceError(
            f"entries sum to {total}, expected 2(n-1) = {2 * (n - 1)}", code="sum"
        )
    return DegreeSequence(degrees=ds)


def parse_sequence_literal(text: str) -> DegreeSequence:
    """Parse a comma-separated degree literal such as "3,1,1,1".

    Each field, stripped of surrounding whitespace, must be a non-empty
    run of ASCII digits 0-9.  At most ``MAX_N`` entries, counted by commas
    before the split, each at most ``MAX_N``, read by ``bounded_int``.  The
    first bad field by position is reported.
    """
    if not text.strip():
        raise SequenceError("empty sequence literal", code="length")
    entries = text.count(",") + 1
    if entries > MAX_N:
        raise SequenceError(f"{entries} entries exceed the limit {MAX_N}", code="length")
    degrees: list[int] = []
    for i, p in enumerate(text.split(",")):
        p = p.strip()
        if not (p.isascii() and p.isdigit()):
            raise SequenceError(f"entry {p!r} at position {i} is not in digits 0-9", code="entry")
        d = bounded_int(p, MAX_N)
        if d is None:
            raise SequenceError(f"entry at position {i} exceeds the limit {MAX_N}", code="entry")
        degrees.append(d)
    return validate_degree_sequence(degrees)


def canonical_word(seq: DegreeSequence) -> tuple[int, ...]:
    """Ascending code word with vertex i repeated degrees[i] - 1 times."""
    word: list[int] = []
    for v, d in enumerate(seq.degrees):
        word.extend([v] * (d - 1))
    return tuple(word)


def prufer_edges(word: Sequence[int], degrees: Sequence[int]) -> Iterator[Edge]:
    """Edges of the tree coded by ``word``, each formed only when asked for.

    ``degrees`` is the tree's degree vector on n = len(degrees) vertices,
    and ``word``, unchecked, holds each v exactly degrees[v] - 1 times.
    Decoding joins the smallest current leaf to each word entry in turn,
    then the last leaf to n - 1.  Each edge ``(leaf, w)`` hangs the leaf
    from w in the tree rooted at n - 1, in which every vertex but n - 1 is
    a leaf exactly once.  The oracle's walk runs this rule inline.

    Linear time, with no heap: ``nxt`` only moves up, because a vertex
    that becomes a leaf below it is used at once as the next leaf.
    """
    degree = list(degrees)
    leaf = nxt = degree.index(1)
    for w in word:
        yield leaf, w
        degree[w] -= 1
        if degree[w] == 1 and w < nxt:
            leaf = w
        else:
            leaf = nxt = degree.index(1, nxt + 1)
    yield leaf, len(degree) - 1


def realize_tree(seq: DegreeSequence) -> LabelledTree:
    """Deterministic labelled tree with exactly the prescribed degrees.

    Decodes the canonical ascending word, so repeated runs on the same
    sequence always start from the same tree.
    """
    return LabelledTree.from_edges(seq.n, prufer_edges(canonical_word(seq), seq.degrees))


def random_degree_sequence(n: int, r: int, rng: random.Random) -> DegreeSequence:
    """Random valid sequence on n vertices with entries in [1, r].

    Starts from all ones and spreads the remaining n - 2 degree units over
    positions still below the cap.  Coverage of degree patterns matters
    here, not uniformity over sequences.  n and r follow
    ``validate_degree_sequence``'s integer rule: 5.0 reads as 5, and 5.5
    raises a ValueError naming it.
    """
    n, r = _named_int("n", n), _named_int("r", r)
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
