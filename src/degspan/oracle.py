"""Exhaustive ground truth for one degree vector.

Labelled trees with degree vector d correspond one-to-one with the
distinct rearrangements of the code word holding vertex i exactly
d_i - 1 times, so walking those rearrangements in lexicographic order
visits every such tree exactly once.  Containment in a host graph is
then a per-edge check as the word decodes, aborted at the first missing
edge.  The walk runs ``prufer_edges``' smallest-leaf decode inline, on
one degree list per word, and tests each edge as it forms by bisection
in the graph's own ascending adjacency rows, then steps to the next
word in place by Knuth's Algorithm L (TAOCP 4A, 7.2.1.2), so a word
costs no Python call and no generator or decoder set-up.
"""

from bisect import bisect_left
from collections.abc import Iterator
from math import factorial, fsum, lgamma, log, perm, prod

from .graph import LabelledGraph, _named_int
from .sequences import DegreeSequence, canonical_word, prufer_edges
from .tree import LabelledTree

__all__ = [
    "DEFAULT_BUDGET",
    "OracleBudgetError",
    "count_trees",
    "oracle_find",
    "oracle_count",
]

DEFAULT_BUDGET = 10**7


class OracleBudgetError(RuntimeError):
    """Raised instead of silently truncating an enumeration.

    ``total`` is the exact number of candidate trees, or None when the
    estimate ``log10_total`` alone put it past the budget.
    """

    def __init__(self, total: int | None, budget: int, log10_total: float) -> None:
        count = f"about 10^{log10_total:.0f}" if total is None else total
        super().__init__(
            f"exhaustive enumeration infeasible at this size: "
            f"{count} candidate trees exceed the budget of {budget}"
        )
        self.total = total
        self.budget = budget


def count_trees(seq: DegreeSequence) -> int:
    """Number of labelled trees with exactly this degree vector.

    (n-2)! / prod((d_i - 1)!), computed exactly.  The largest (d_i - 1)!
    is cancelled first, as (n-2)! / (d_i - 1)! = perm(n-2, n-1-d_i), so a
    star costs a product of ones instead of dividing (n-2)! by itself.
    """
    *rest, top = sorted(seq.degrees)
    return perm(seq.n - 2, seq.n - 1 - top) // prod(factorial(d - 1) for d in rest)


def _contained_trees(g: LabelledGraph, seq: DegreeSequence, budget: int) -> Iterator[list[int]]:
    """Code words of the trees with this degree vector that lie inside g.

    Checks ``budget``, a non-negative integer by ``_named_int``'s rule, and
    the instance before decoding any word, then walks the words in
    lexicographic order, stops decoding each at its first edge missing
    from g, yields each contained word, and returns after the last word,
    the canonical one reversed.  The yielded list is the walk's own, so it
    holds that word only until the walk resumes.  The log of ``count_trees(seq)``,
    lgamma(n - 1) - sum(lgamma(d_i)), is off by far less than 1, so an
    estimate over log(budget) + 1 is refused without the exact count: its
    factorials take seconds at large n, and it may have too many digits to
    print.  Otherwise the exact count decides.
    """
    n, degrees, budget = seq.n, seq.degrees, _named_int("budget", budget)
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if g.n != n:
        raise ValueError(f"graph order {g.n} != sequence length {n}")
    log_total = lgamma(n - 1) - fsum(map(lgamma, degrees))
    total = None if log_total > log(max(budget, 1)) + 1 else count_trees(seq)
    if total is None or total > budget:
        raise OracleBudgetError(total, budget, log_total / log(10))
    adjacency = g.adjacency
    first, last = degrees.index(1), n - 1
    word = list(canonical_word(seq))
    end = len(word) - 1
    while True:
        # prufer_edges' decode, inline; it names only vertices in [0, n), so no bounds check.
        degree = list(degrees)
        leaf = nxt = first
        for w in word:
            row = adjacency[leaf]
            i = bisect_left(row, w)
            if i == len(row) or row[i] != w:
                break
            degree[w] -= 1
            if degree[w] == 1 and w < nxt:
                leaf = w
            else:
                leaf = nxt = degree.index(1, nxt + 1)
        else:
            row = adjacency[leaf]
            i = bisect_left(row, last)
            if i < len(row) and row[i] == last:
                yield word
        # Algorithm L: the pivot is the last ascent, swapped with the last entry above it.
        i = end - 1
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = end
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = word[:i:-1]


def oracle_find(
    g: LabelledGraph, seq: DegreeSequence, budget: int = DEFAULT_BUDGET
) -> LabelledTree | None:
    """First enumerated tree living entirely inside g, or None.

    The walk is exhaustive, so None is a proof that no spanning tree of g
    has this degree vector.  Refuses oversized enumerations outright, and
    decodes the first contained word once more, into the tree it returns.
    """
    for word in _contained_trees(g, seq, budget):
        return LabelledTree.from_edges(seq.n, prufer_edges(word, seq.degrees))
    return None


def oracle_count(g: LabelledGraph, seq: DegreeSequence, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of spanning trees of g with this degree vector."""
    return sum(1 for _ in _contained_trees(g, seq, budget))
