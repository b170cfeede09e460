"""Exhaustive ground truth for one degree vector.

Labelled trees with degree vector d correspond one-to-one with the
distinct rearrangements of the code word holding vertex i exactly
d_i - 1 times, so walking those rearrangements in lexicographic order
visits every such tree exactly once.  Containment in a host graph is
then a per-edge check as the word decodes, aborted at the first missing
edge.  The walk runs ``prufer_edges``' smallest-leaf decode inline, on
one degree list per word, and tests each edge as it forms by bisection
in the graph's own ascending adjacency rows, so a word costs no
generator or decoder set-up.
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


def _contained_trees(g: LabelledGraph, seq: DegreeSequence, budget: int) -> Iterator[list[int]]:
    """Code words of the trees with this degree vector that lie inside g.

    Checks the instance and ``budget``, an integer by ``_named_int``'s rule,
    before decoding any word, then walks the words in lexicographic order,
    stops decoding each at its first edge missing from g, and yields each
    contained word.  The yielded list is the walk's own, so it holds that
    word only until the walk resumes.  The log of ``count_trees(seq)``,
    lgamma(n - 1) - sum(lgamma(d_i)), is off by far less than 1, so an
    estimate over log(budget) + 1 is refused without the exact count: its
    factorials take seconds at large n, and it may have too many digits to
    print.  Otherwise the exact count decides.
    """
    n, degrees, budget = seq.n, seq.degrees, _named_int("budget", budget)
    if g.n != n:
        raise ValueError(f"graph order {g.n} != sequence length {n}")
    log_total = lgamma(n - 1) - fsum(map(lgamma, degrees))
    total = None if log_total > log(max(budget, 1)) + 1 else count_trees(seq)
    if total is None or total > budget:
        raise OracleBudgetError(total, budget, log_total / log(10))
    adjacency = g.adjacency
    first, last = degrees.index(1), n - 1
    word = list(canonical_word(seq))
    more = True
    while more:
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
        more = _next_permutation(word)


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
