"""Exact degree-sum thresholds, whole-graph condition checks, and random graphs that meet them.

For a degree cap r >= 2 and order n >= r + 1 the bound is the rational
((2r-3)n - (2r-5)) / (r-1); with r = 3 this is (3n-1)/2.  A graph meets
the condition when every pair of non-adjacent vertices has degree sum at
least the bound.  All comparisons are exact: the margins that matter are
as small as 1/(r-1), which float arithmetic would blur.
"""

import random
from fractions import Fraction
from math import ceil
from typing import Any, NamedTuple

from .graph import (
    MAX_GENERATED_N, LabelledGraph, _freeze_rows, _named_int, min_nonadjacent_degree_sum,
)

__all__ = ["ConditionReport", "degree_sum_threshold", "check_condition", "random_condition_graph"]


class ConditionReport(NamedTuple):
    """Outcome of checking one graph against the degree-sum bound."""

    n: int
    r: int
    threshold: Fraction
    satisfied: bool
    worst_pair: tuple[int, int, int] | None  # (u, v, deg sum), None iff complete

    def to_json_dict(self) -> dict[str, Any]:
        worst = None
        if self.worst_pair is not None:
            u, v, s = self.worst_pair
            worst = {"u": u, "v": v, "sum": s}
        return {**self._asdict(), "threshold": str(self.threshold), "worst_pair": worst}


def degree_sum_threshold(n: int, r: int) -> Fraction:
    """Exact bound ((2r-3)n - (2r-5)) / (r-1).

    r = 2 gives n + 1.  A non-adjacent pair's degree sum is at most
    2(n-2), so a non-complete graph can reach it from n = 5 on: K6 minus
    one edge has sum 8 >= 7.  n and r are read as ``int(x)`` when that
    equals x (so 3.0 reads as 3); anything else raises ValueError.
    """
    n, r = _named_int("n", n), _named_int("r", r)
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    if n < r + 1:
        raise ValueError(f"need n >= r + 1 = {r + 1}, got {n}")
    return Fraction((2 * r - 3) * n - (2 * r - 5), r - 1)


def check_condition(g: LabelledGraph, r: int) -> ConditionReport:
    """Evaluate the degree-sum condition on every non-adjacent pair.

    Complete graphs satisfy it vacuously.  ``worst_pair`` is the
    lexicographically first minimizing pair otherwise.  ``r`` follows
    ``degree_sum_threshold``'s integer rule, and the report holds the int.
    """
    r = _named_int("r", r)
    bound = degree_sum_threshold(g.n, r)
    worst = min_nonadjacent_degree_sum(g)
    if worst is None:
        return ConditionReport(n=g.n, r=r, threshold=bound, satisfied=True, worst_pair=None)
    (u, v), s = worst
    return ConditionReport(
        n=g.n, r=r, threshold=bound, satisfied=s >= bound, worst_pair=(u, v, s)
    )


def random_condition_graph(n: int, r: int, seed: int) -> LabelledGraph:
    """Random graph whose non-adjacent pairs all meet the degree-sum bound for r.

    Starts from a random graph, then makes one repair sweep over vertex
    pairs, adding the edge wherever a non-adjacent pair falls below the
    bound.  Degrees only grow during the sweep, so a pair that meets the
    bound when visited still meets it at the end.  Deterministic in seed,
    which follows ``_named_int``'s integer rule, like n and r, and is at least 0.
    One ``bytearray`` row per vertex holds the graph in about n^2 bytes;
    ``_freeze_rows`` turns them into neighbour tuples.
    """
    n, r, seed = _named_int("n", n), _named_int("r", r), _named_int("seed", seed)
    if not 4 <= n <= MAX_GENERATED_N:
        raise ValueError(f"need 4 <= n <= generator limit {MAX_GENERATED_N}, got {n}")
    need = ceil(degree_sum_threshold(n, r))  # an int sum is below the bound iff below this
    if seed < 0:  # Random(-s) repeats Random(s)
        raise ValueError(f"need seed >= 0, got {seed}")
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
    return LabelledGraph(_freeze_rows(rows))
