"""Tight example families for the degree-sum threshold.

For k >= 1 and r >= 3, take disjoint vertex groups X and Y of size k and
Z of size 2k(r-2) + 2, and remove every X-Y edge from the complete graph
on all n = 2k(r-1) + 2 vertices.  Ask for degree r at each X and Y vertex
and degree 1 on Z: the internal vertices of such a tree would have to
span the disconnected X-Y part alone, so no tree qualifies, yet every
non-adjacent pair sits only 1/(r-1) below the threshold.
"""

from .graph import MAX_GENERATED_N, LabelledGraph, _named_int
from .sequences import DegreeSequence, validate_degree_sequence

__all__ = ["build_extremal", "extremal_worst_sum", "extremal_order"]


def extremal_order(k: int, r: int) -> int:
    """Vertex count 2k(r-1) + 2 of the (k, r) family member, at most MAX_GENERATED_N."""
    k, r = _check_params(k, r)
    n = 2 * k * (r - 1) + 2
    if n > MAX_GENERATED_N:
        raise ValueError(f"order {n} (k={k}, r={r}) exceeds the generator limit {MAX_GENERATED_N}")
    return n


def _check_params(k: int, r: int) -> tuple[int, int]:
    """k >= 1 and r >= 3, each read by ``_named_int``'s rule (so 1.0 reads as 1)."""
    k, r = _named_int("k", k), _named_int("r", r)
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if r < 3:
        raise ValueError(f"need r >= 3, got {r}")
    return k, r


def build_extremal(k: int, r: int) -> tuple[LabelledGraph, DegreeSequence]:
    """Graph and target sequence of the (k, r) family member.

    Layout: X at indices 0..k-1, Y at k..2k-1, Z at 2k..n-1.  The target
    asks degree r on X and Y and degree 1 on Z, which sums to 2(n-1).

    Each sorted neighbour tuple is cut from one tuple of all vertices:
    everything but v itself, and for X and Y also the other group.
    """
    k, r = _check_params(k, r)
    n = extremal_order(k, r)
    ids = tuple(range(n))
    adjacency = (
        [ids[:v] + ids[v + 1 : k] + ids[2 * k :] for v in range(k)]
        + [ids[k:v] + ids[v + 1 :] for v in range(k, 2 * k)]
        + [ids[:v] + ids[v + 1 :] for v in range(2 * k, n)]
    )
    degrees = [r] * (2 * k) + [1] * (n - 2 * k)
    return LabelledGraph(tuple(adjacency)), validate_degree_sequence(degrees)


def extremal_worst_sum(k: int, r: int) -> int:
    """Degree sum of any non-adjacent (X, Y) pair: 2k(2r-3) + 2.

    Each such vertex misses itself and the k vertices across, giving
    degree (k-1) + (2k(r-2)+2); the sum lands exactly 1/(r-1) below the
    threshold at order 2k(r-1) + 2.
    """
    k, r = _check_params(k, r)
    return 2 * ((k - 1) + (2 * k * (r - 2) + 2))
