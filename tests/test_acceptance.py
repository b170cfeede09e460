"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from degspan import (
    LabelledGraph,
    build_extremal,
    check_condition,
    count_trees,
    degree_sum_threshold,
    extremal_order,
    extremal_worst_sum,
    find_spanning_tree,
    min_nonadjacent_degree_sum,
    oracle_count,
    oracle_find,
    random_condition_graph,
    random_degree_sequence,
    realize_tree,
    validate_degree_sequence,
    validate_witness,
    verify_tree,
)
from support import all_degree_sequences, all_labelled_graphs, decode, prufer_encode


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - started:.2f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_c1_tightness_identity():
    with criterion("C1 tightness identity"):
        started = time.perf_counter()
        for k in range(1, 6):
            g, _ = build_extremal(k, 3)
            n = 4 * k + 2
            assert g.n == n == extremal_order(k, 3)
            worst = min_nonadjacent_degree_sum(g)
            assert worst is not None
            assert worst[1] == 6 * k + 2
            assert 2 * worst[1] == 3 * n - 2
        assert time.perf_counter() - started < 1.0


def test_c2_boundary_nonexistence():
    with criterion("C2 boundary non-existence"):
        started = time.perf_counter()
        g1, seq1 = build_extremal(1, 3)
        assert count_trees(seq1) == 6
        assert oracle_count(g1, seq1) == 0
        g2, seq2 = build_extremal(2, 3)
        assert count_trees(seq2) == 2520
        assert oracle_count(g2, seq2) == 0
        assert time.perf_counter() - started < 1.0


def test_c3_exhaustive_guarantee_small_orders():
    with criterion("C3 exhaustive guarantee n=5,6"):
        started = time.perf_counter()
        instances = 0
        eligible_graphs = 0
        for n in (5, 6):
            seqs = [
                validate_degree_sequence(s) for s in all_degree_sequences(n, 3)
            ]
            for g in all_labelled_graphs(n):
                if not check_condition(g, 3).satisfied:
                    continue
                eligible_graphs += 1
                for seq in seqs:
                    res = find_spanning_tree(g, seq)
                    assert res.ok, f"stall on condition-satisfying graph {g.edges}"
                    assert verify_tree(g, res.tree, seq)
                    instances += 1
        assert eligible_graphs > 0 and instances > 0
        print(
            f"  c3: {eligible_graphs} eligible graphs, {instances} instances solved"
        )
        assert time.perf_counter() - started < 300.0


def test_c4_randomized_guarantee():
    with criterion("C4 randomized guarantee, 1000 instances"):
        started = time.perf_counter()
        rng = random.Random(20260809)
        solved = 0
        for i in range(1000):
            n = rng.randint(10, 60)
            r = rng.choice((3, 4, 5))
            g = random_condition_graph(n, r, seed=rng.randrange(2**32))
            seq = random_degree_sequence(n, r, rng)
            res = find_spanning_tree(g, seq)
            assert res.ok, f"instance {i} (n={n}, r={r}) stalled"
            assert verify_tree(g, res.tree, seq), f"instance {i} failed verification"
            assert len(res.steps) <= n - 1
            solved += 1
        assert solved == 1000
        assert time.perf_counter() - started < 60.0


def _witness_battery():
    # stalls from the boundary families and from random sparse instances
    for k, r in [(1, 3), (2, 3), (3, 3), (1, 4), (2, 4), (1, 5)]:
        g, seq = build_extremal(k, r)
        yield g, find_spanning_tree(g, seq)
    rng = random.Random(5150)
    produced = 0
    while produced < 150:
        n = rng.randint(2, 9)
        p = rng.uniform(0.0, 0.6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ]
        g = LabelledGraph.from_edges(n, edges)
        seq = random_degree_sequence(n, 3, rng)
        res = find_spanning_tree(g, seq)
        if not res.ok:
            produced += 1
            yield g, res


def test_c5_witness_soundness():
    with criterion("C5 witness soundness"):
        checked = 0
        for g, res in _witness_battery():
            assert not res.ok
            w = res.witness
            assert validate_witness(g, w), f"witness failed revalidation: {w}"
            r = w.r
            assert (r - 1) * w.hooks_u >= w.u_nbrs_same
            assert (r - 1) * w.hooks_v >= w.v_nbrs_same
            assert w.hooks_u + w.bridges_u <= w.size_u
            assert w.hooks_v + w.bridges_v <= w.size_v
            if r == 3:
                assert 2 * w.degree_sum <= 3 * (w.size_u + w.size_v) - 2
            assert not w.contradicts_condition
            checked += 1
        assert checked >= 150
        print(f"  c5: {checked} witnesses revalidated")


def test_c6_oracle_equivalence_under_no_condition():
    with criterion("C6 oracle equivalence, 500 uncurated instances"):
        rng = random.Random(777)
        stalls_on_feasible = 0
        stalls_in_condition_subset = 0
        condition_subset = 0
        for _ in range(500):
            n = rng.randint(2, 7)
            p = rng.random()
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            g = LabelledGraph.from_edges(n, edges)
            seq = random_degree_sequence(n, 3, rng)
            in_subset = n >= 4 and check_condition(g, 3).satisfied
            if in_subset:
                condition_subset += 1
            res = find_spanning_tree(g, seq)
            feasible = oracle_find(g, seq) is not None
            if res.ok:
                assert verify_tree(g, res.tree, seq)
                assert feasible, "solver produced a tree the oracle missed"
            elif feasible:
                stalls_on_feasible += 1
                if in_subset:
                    stalls_in_condition_subset += 1
        print(
            f"  c6: stalls on oracle-feasible instances: {stalls_on_feasible}/500 "
            f"(condition-satisfied subset: {condition_subset} instances)"
        )
        assert stalls_in_condition_subset == 0


def test_c7_prufer_correctness():
    with criterion("C7 Prüfer correctness"):
        exhaustive = 0
        for n in range(2, 7):
            for word in itertools.product(range(n), repeat=n - 2):
                tree = decode(word, n)
                assert prufer_encode(tree) == word
                degrees = tuple(1 + word.count(v) for v in range(n))
                assert tree.degree_vector() == degrees
                seq = validate_degree_sequence(degrees)
                assert realize_tree(seq).degree_vector() == degrees
                exhaustive += 1
        assert exhaustive == sum(n ** (n - 2) for n in range(2, 7))
        rng = random.Random(99)
        for _ in range(10_000):
            n = rng.randint(2, 50)
            word = tuple(rng.randrange(n) for _ in range(n - 2))
            tree = decode(word, n)
            assert prufer_encode(tree) == word
            seq = validate_degree_sequence(tree.degree_vector())
            assert realize_tree(seq).degree_vector() == seq.degrees


def test_c8_threshold_gap():
    with criterion("C8 threshold gap 1/(r-1)"):
        for r in (3, 4, 5):
            for k in range(1, 6):
                n = extremal_order(k, r)
                gap = degree_sum_threshold(n, r) - extremal_worst_sum(k, r)
                assert gap == Fraction(1, r - 1)
                g, _ = build_extremal(k, r)
                scan = min_nonadjacent_degree_sum(g)
                assert scan is not None and scan[1] == extremal_worst_sum(k, r)
