"""Counted work: the north star's asymptotic targets read as Python line events.

A line count repeats exactly on every run, so it gates the growth of a
layer's work where a timing on a shared host cannot.  It sees Python lines
only: the C-level work inside a line (``bisect``, ``sorted``, set algebra)
is not counted, so a log factor passes unseen.
"""

import random

import degspan.graph
from degspan import (
    LabelledGraph, count_trees, find_spanning_tree, min_nonadjacent_degree_sum, oracle_count,
    parse_graph, random_condition_graph, random_degree_sequence, serialize_graph,
    validate_degree_sequence,
)
from support import complete_graph, count_lines, path_graph

RUNGS = (125, 250, 500)
SOLVE_SEEDS = (1, 2, 3)
SOLVE_LINES_PER_EXCHANGE_PER_N = 10
"""About twice the largest reading, 4.95 at n = 125, seed 1 (Python 3.11.7)."""


def test_solve_lines_per_exchange_are_linear_in_n():
    # an exchange walks two tree paths and one side of the split, O(n); the
    # start's decode and the closing whole-tree check, also O(n), are shared
    # among the exchanges, so their share falls as the exchanges grow with n
    ratios = {}
    for n in RUNGS:
        for seed in SOLVE_SEEDS:
            g = random_condition_graph(n, 3, seed)
            seq = random_degree_sequence(n, 3, random.Random(seed))
            res, lines = count_lines(find_spanning_tree, g, seq)
            assert res.ok and res.steps
            ratios[n, seed] = lines / len(res.steps) / n
    assert max(ratios.values()) <= SOLVE_LINES_PER_EXCHANGE_PER_N, ratios
    smallest, largest = RUNGS[0], RUNGS[-1]
    assert (max(ratios[largest, s] for s in SOLVE_SEEDS)
            <= max(ratios[smallest, s] for s in SOLVE_SEEDS)), ratios


SCAN_LINES_PER_N_PLUS_M = 0.25
"""About twice the largest reading, 0.113 on the matching complement at n = 125 (Python 3.11.7)."""


def _scan_hosts(n):
    matching_complement = LabelledGraph.from_edges(
        n, ((u, v) for u in range(n) for v in range(u + 1, n) if u + v != n - 1)
    )
    return {
        **{f"r3-seed{s}": random_condition_graph(n, 3, s) for s in SOLVE_SEEDS},
        "r6-seed2": random_condition_graph(n, 6, 2),
        "matching-complement": matching_complement,
    }


def test_scan_lines_are_linear_in_n_plus_m():
    # each vertex in (degree, index) order skips at most its own neighbours
    # before its first non-neighbour, and the pass stops early on these hosts
    ratios = {}
    for n in RUNGS:
        for name, g in _scan_hosts(n).items():
            _, lines = count_lines(min_nonadjacent_degree_sum, g)
            ratios[n, name] = lines / (n + len(g.edges))
    assert max(ratios.values()) <= SCAN_LINES_PER_N_PLUS_M, ratios
    smallest, largest = RUNGS[0], RUNGS[-1]
    assert (max(r for (n, _), r in ratios.items() if n == largest)
            <= max(r for (n, _), r in ratios.items() if n == smallest)), ratios


PARSE_BULK_LINES_PER_LINE = 6
"""About twice the largest reading, 3.07 at n = 125 (Python 3.11.7)."""
PARSE_LOOP_LINES_PER_LINE = 48
"""About twice the largest reading, 24.0 at every rung (Python 3.11.7)."""


def _parse_ratios(texts, monkeypatch):
    """``parse_graph``'s line events per input line on each text, and its ``bounded_int`` calls."""
    calls = []
    bounded_int = degspan.graph.bounded_int

    def counting(digits, limit):
        calls.append(digits)
        return bounded_int(digits, limit)

    monkeypatch.setattr(degspan.graph, "bounded_int", counting)
    ratios, bounded = [], []
    for text in texts:
        calls.clear()
        _, lines = count_lines(parse_graph, text)
        ratios.append(lines / text.count("\n"))
        bounded.append(len(calls))
    return ratios, bounded


def test_parse_lines_per_input_line_are_constant_in_bulk(monkeypatch):
    # a dense file in serialize_graph's layout is set a block at a time:
    # only the vertex count goes through bounded_int
    texts = [serialize_graph(random_condition_graph(n, 3, 1)) for n in RUNGS]
    ratios, bounded = _parse_ratios(texts, monkeypatch)
    assert bounded == [1] * len(texts)
    assert max(ratios) <= PARSE_BULK_LINES_PER_LINE, ratios
    assert ratios[-1] <= ratios[0], ratios


def test_parse_lines_per_input_line_are_constant_line_by_line(monkeypatch):
    # a path's n^2 row bytes would exceed four per input character, so its
    # rows are lists and every edge line is read on its own
    sizes = [20 * n for n in RUNGS]
    ratios, bounded = _parse_ratios([serialize_graph(path_graph(n)) for n in sizes], monkeypatch)
    assert bounded == [1 + 2 * (n - 1) for n in sizes]
    assert max(ratios) <= PARSE_LOOP_LINES_PER_LINE, ratios
    assert ratios[-1] <= ratios[0], ratios


ORACLE_SEQUENCES = ((3, 2, 2, 1, 1, 1), (3, 3, 2, 2, 1, 1, 1, 1), (3, 3, 3, 2, 2, 1, 1, 1, 1, 1))
ORACLE_LINES_PER_WORD_PER_N = 16
"""About twice the largest reading, 8.39 at n = 6 (Python 3.11.7)."""


def test_oracle_lines_per_word_are_linear_in_n():
    # on K_n every word decodes to its end, the most a word costs: n - 1
    # edges tested, then Algorithm L's step to the next word
    ratios = {}
    for degrees in ORACLE_SEQUENCES:
        seq = validate_degree_sequence(degrees)
        n = seq.n
        words, lines = count_lines(oracle_count, complete_graph(n), seq)
        assert words == count_trees(seq)
        ratios[n] = lines / words / n
    assert max(ratios.values()) <= ORACLE_LINES_PER_WORD_PER_N, ratios
    assert ratios[max(ratios)] <= ratios[min(ratios)], ratios
