"""Exhaustive ground truth for one degree vector.

Labelled trees with degree vector d correspond one-to-one with the
distinct rearrangements of the code word holding vertex i exactly
d_i - 1 times, so walking those rearrangements in lexicographic order
visits every such tree exactly once.  Containment in a host graph is
then a per-edge check, aborted at the first missing edge.
"""

from __future__ import annotations

from math import factorial, prod

from .graph import LabelledGraph
from .sequences import DegreeSequence, canonical_word, prufer_decode, prufer_edges
from .tree import LabelledTree

__all__ = [
    "DEFAULT_BUDGET",
    "OracleBudgetError",
    "count_trees",
    "iter_degree_trees",
    "oracle_find",
    "oracle_count",
]

DEFAULT_BUDGET = 10**7


class OracleBudgetError(RuntimeError):
    """Raised instead of silently truncating an enumeration."""

    def __init__(self, total: int, budget: int) -> None:
        super().__init__(
            f"exhaustive enumeration infeasible at this size: "
            f"{total} candidate trees exceed the budget of {budget}"
        )
        self.total = total
        self.budget = budget


def count_trees(seq: DegreeSequence) -> int:
    """Number of labelled trees with exactly this degree vector.

    (n-2)! / prod((d_i - 1)!), computed exactly.
    """
    return factorial(seq.n - 2) // prod(factorial(d - 1) for d in seq.degrees)


def _next_permutation(a: list[int]) -> bool:
    """Advance to the lexicographic successor in place; False at the last."""
    i = len(a) - 2
    while i >= 0 and a[i] >= a[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(a) - 1
    while a[j] <= a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1 :] = reversed(a[i + 1 :])
    return True


def _iter_words(seq: DegreeSequence):
    # Yields one live list, mutated between yields; callers must not hold it.
    word = list(canonical_word(seq))
    yield word
    while _next_permutation(word):
        yield word


def iter_degree_trees(seq: DegreeSequence):
    """All labelled trees with this degree vector, each exactly once."""
    for word in _iter_words(seq):
        yield prufer_decode(word, seq.n)


def _check_instance(g: LabelledGraph, seq: DegreeSequence, budget: int) -> int:
    if g.n != seq.n:
        raise ValueError(f"graph order {g.n} != sequence length {seq.n}")
    total = count_trees(seq)
    if total > budget:
        raise OracleBudgetError(total, budget)
    return total


def oracle_find(
    g: LabelledGraph, seq: DegreeSequence, budget: int = DEFAULT_BUDGET
) -> LabelledTree | None:
    """First enumerated tree living entirely inside g, or None.

    The walk is exhaustive, so None is a proof that no spanning tree of g
    has this degree vector.  Refuses oversized enumerations outright.
    """
    _check_instance(g, seq, budget)
    for word in _iter_words(seq):
        edges = prufer_edges(word, seq.n, g.are_adjacent)
        if edges is not None:
            return LabelledTree.from_edges(seq.n, edges)
    return None


def oracle_count(g: LabelledGraph, seq: DegreeSequence, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of spanning trees of g with this degree vector."""
    _check_instance(g, seq, budget)
    found = 0
    for word in _iter_words(seq):
        if prufer_edges(word, seq.n, g.are_adjacent) is not None:
            found += 1
    return found
