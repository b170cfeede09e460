"""Counted work: the north star's asymptotic targets read as Python line events.

A line count repeats exactly on every run, so it gates the growth of a
layer's work where a timing on a shared host cannot.  It sees Python lines
only: the C-level work inside a line (``bisect``, ``sorted``, set algebra)
is not counted, so a log factor passes unseen.
"""

import random

from degspan import find_spanning_tree, random_condition_graph, random_degree_sequence
from support import count_lines

SOLVE_RUNGS = (125, 250, 500)
SOLVE_SEEDS = (1, 2, 3)
SOLVE_LINES_PER_EXCHANGE_PER_N = 10
"""About twice the largest reading, 4.95 at n = 125, seed 1 (Python 3.11.7)."""


def test_solve_lines_per_exchange_are_linear_in_n():
    # an exchange walks two tree paths and one side of the split, O(n); the
    # start's decode and the closing whole-tree check, also O(n), are shared
    # among the exchanges, so their share falls as the exchanges grow with n
    ratios = {}
    for n in SOLVE_RUNGS:
        for seed in SOLVE_SEEDS:
            g = random_condition_graph(n, 3, seed)
            seq = random_degree_sequence(n, 3, random.Random(seed))
            res, lines = count_lines(find_spanning_tree, g, seq)
            assert res.ok and res.steps
            ratios[n, seed] = lines / len(res.steps) / n
    assert max(ratios.values()) <= SOLVE_LINES_PER_EXCHANGE_PER_N, ratios
    smallest, largest = SOLVE_RUNGS[0], SOLVE_RUNGS[-1]
    assert (max(ratios[largest, s] for s in SOLVE_SEEDS)
            <= max(ratios[smallest, s] for s in SOLVE_SEEDS)), ratios
