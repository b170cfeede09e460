import itertools
import math
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings

import degspan.oracle
from degspan import (
    LabelledGraph,
    LabelledTree,
    OracleBudgetError,
    build_extremal,
    canonical_word,
    count_trees,
    oracle_count,
    oracle_find,
    random_degree_sequence,
    validate_degree_sequence,
)
from support import (
    all_degree_sequences,
    all_labelled_graphs,
    complete_graph,
    graph_with_sequence,
    reference_prufer_edges,
)


def degree_trees(seq):
    """Every tree with this degree vector, in lexicographic word order.

    Plain enumeration, independent of the oracle's walk: every distinct
    rearrangement of the canonical word, sorted and decoded by the
    reference heap decoder, not the oracle's.
    """
    words = sorted(set(itertools.permutations(canonical_word(seq))))
    return [
        LabelledTree.from_edges(seq.n, reference_prufer_edges(word, seq.n))
        for word in words
    ]


class TestCountTrees:
    def test_path_degrees(self):
        assert count_trees(validate_degree_sequence([2, 2, 1, 1])) == 2

    def test_unique_star(self):
        assert count_trees(validate_degree_sequence([3, 1, 1, 1])) == 1

    def test_boundary_sequence(self):
        assert count_trees(validate_degree_sequence([3, 3, 1, 1, 1, 1])) == 6

    def test_two_vertices(self):
        assert count_trees(validate_degree_sequence([1, 1])) == 1

    def test_matches_explicit_enumeration(self):
        for degrees in ([2, 2, 1, 1], [3, 3, 1, 1, 1, 1], [2, 3, 2, 1, 1, 1]):
            seq = validate_degree_sequence(degrees)
            trees = degree_trees(seq)
            assert len(trees) == count_trees(seq)
            assert len({t.edges for t in trees}) == len(trees)
            for t in trees:
                assert t.degree_vector() == seq.degrees

    def test_equals_the_factorial_formula(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 60)
            seq = random_degree_sequence(n, rng.randint(2, n), rng)
            formula = math.factorial(n - 2) // math.prod(math.factorial(d - 1) for d in seq.degrees)
            assert count_trees(seq) == formula

    def test_star_at_large_order_does_not_divide_huge_factorials(self):
        n = 200_000
        seq = validate_degree_sequence([n - 1] + [1] * (n - 1))
        started = time.perf_counter()
        assert count_trees(seq) == 1
        assert time.perf_counter() - started < 5.0  # dividing (n-2)! by itself took 30 s


class TestCayleyCompleteness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_counts_recover_cayley(self, n):
        total = sum(
            count_trees(validate_degree_sequence(s))
            for s in all_degree_sequences(n, n - 1)
        )
        assert total == n ** max(0, n - 2)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_enumeration_covers_every_labelled_tree(self, n):
        everything = {
            LabelledTree.from_edges(n, reference_prufer_edges(w, n)).edges
            for w in itertools.product(range(n), repeat=n - 2)
        }
        enumerated = set()
        for s in all_degree_sequences(n, n - 1):
            for t in degree_trees(validate_degree_sequence(s)):
                enumerated.add(t.edges)
        assert enumerated == everything


class TestOracleFind:
    def test_complete_graph_contains_everything(self):
        seq = validate_degree_sequence([3, 3, 1, 1, 1, 1])
        t = oracle_find(complete_graph(6), seq)
        assert t is not None
        assert t.degree_vector() == seq.degrees

    def test_boundary_family_has_no_tree(self):
        g, seq = build_extremal(1, 3)
        assert oracle_find(g, seq) is None

    def test_edgeless_graph(self):
        g = LabelledGraph.from_edges(4, [])
        assert oracle_find(g, validate_degree_sequence([2, 2, 1, 1])) is None

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            oracle_find(complete_graph(4), validate_degree_sequence([2, 1, 1]))

    def test_budget_refusal_is_loud(self):
        seq = validate_degree_sequence([2] * 28 + [1, 1])
        assert count_trees(seq) > 10**6
        with pytest.raises(OracleBudgetError):
            oracle_find(complete_graph(30), seq, budget=10**6)

    def test_oversized_request_is_refused_before_counting(self, monkeypatch):
        # (n-2)! at n = 1600 has 4,427 digits, past Python's int-to-str limit
        g = LabelledGraph.from_edges(1600, [])
        seq = validate_degree_sequence([2] * 1598 + [1, 1])

        def no_exact_count(seq):
            raise AssertionError("the exact count was computed")

        monkeypatch.setattr(degspan.oracle, "count_trees", no_exact_count)
        for oracle in (oracle_find, oracle_count):
            with pytest.raises(OracleBudgetError) as exc:
                oracle(g, seq)
            assert exc.value.total is None
            assert str(exc.value).endswith(
                "about 10^4427 candidate trees exceed the budget of 10000000"
            )

    def test_budget_boundary_is_exact(self):
        seq = validate_degree_sequence([2, 2, 2, 2, 1, 1])
        assert count_trees(seq) == 24
        assert oracle_count(complete_graph(6), seq, budget=24) == 24
        with pytest.raises(OracleBudgetError) as exc:
            oracle_find(complete_graph(6), seq, budget=23)
        assert exc.value.total == 24
        with pytest.raises(OracleBudgetError):
            oracle_count(complete_graph(6), seq, budget=0)

    @pytest.mark.parametrize("oracle", [oracle_find, oracle_count])
    def test_negative_budget_is_refused(self, oracle):
        seq = validate_degree_sequence([2, 2, 2, 2, 1, 1])
        with pytest.raises(ValueError, match=r"^need budget >= 0, got -1$"):
            oracle(complete_graph(6), seq, budget=-1)

    @pytest.mark.parametrize("oracle", [oracle_find, oracle_count])
    @pytest.mark.parametrize("budget", [None, 2.5, "24", float("nan")])
    def test_budget_follows_the_integer_rule(self, oracle, budget):
        seq = validate_degree_sequence([2, 2, 2, 2, 1, 1])
        message = rf"^budget = {re.escape(repr(budget))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            oracle(complete_graph(6), seq, budget=budget)

    def test_integral_budget_reads_as_int(self):
        seq = validate_degree_sequence([2, 2, 2, 2, 1, 1])
        assert oracle_count(complete_graph(6), seq, budget=24.0) == 24
        with pytest.raises(OracleBudgetError) as exc:
            oracle_find(complete_graph(6), seq, budget=23.0)
        assert type(exc.value.budget) is int
        assert str(exc.value).endswith("24 candidate trees exceed the budget of 23")

    def test_found_tree_is_contained(self):
        g, _ = build_extremal(2, 3)
        seq = validate_degree_sequence([2, 2, 2, 2, 2, 2, 2, 2, 1, 1])
        t = oracle_find(g, seq)
        assert t is not None
        for e in t.edges:
            assert g.are_adjacent(*e)


class TestOracleCount:
    def test_complete_graph_counts_all(self):
        for degrees in ([2, 2, 1, 1], [3, 1, 1, 1], [2, 3, 2, 1, 1, 1]):
            seq = validate_degree_sequence(degrees)
            assert oracle_count(complete_graph(seq.n), seq) == count_trees(seq)

    def test_boundary_family_counts_zero(self):
        g, seq = build_extremal(1, 3)
        assert oracle_count(g, seq) == 0

    def test_edgeless_graph_counts_zero(self):
        g = LabelledGraph.from_edges(5, [])
        assert oracle_count(g, validate_degree_sequence([2, 2, 2, 1, 1])) == 0

    @settings(deadline=None, max_examples=40)
    @given(graph_with_sequence(min_n=3, max_n=7, cap=None))
    def test_monotone_under_edge_addition(self, case):
        g, seq = case
        base = oracle_count(g, seq)
        missing = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.are_adjacent(u, v)
        ]
        for extra in missing[:3]:
            bigger = LabelledGraph.from_edges(g.n, list(g.edges) + [extra])
            assert oracle_count(bigger, seq) >= base


def reference_contained_trees(g, seq):
    """Contained trees in lexicographic word order, tested edge by edge."""
    return [t for t in degree_trees(seq) if all(g.are_adjacent(*e) for e in t.edges)]


class TestOracleReference:
    @staticmethod
    def agree(g, seq):
        contained = reference_contained_trees(g, seq)
        assert oracle_count(g, seq) == len(contained)
        assert oracle_find(g, seq) == (contained[0] if contained else None)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_graph_and_sequence(self, n):
        for g in all_labelled_graphs(n):
            for degrees in all_degree_sequences(n, n - 1):
                self.agree(g, validate_degree_sequence(degrees))

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_seeded_random_graphs(self, n):
        rng = random.Random(n)
        for _ in range(12):
            p = rng.uniform(0.3, 0.9)
            pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = LabelledGraph.from_edges(n, pairs)
            for _ in range(3):
                self.agree(g, random_degree_sequence(n, rng.randint(2, n - 1), rng))


class TestOracleHotPath:
    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_walk_makes_no_are_adjacent_call(self, n, monkeypatch):
        rng = random.Random(100 + n)
        cases = []
        for _ in range(8):
            p = rng.uniform(0.3, 0.9)
            pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = LabelledGraph.from_edges(n, pairs)
            seq = random_degree_sequence(n, rng.randint(2, n - 1), rng)
            cases.append((g, seq, reference_contained_trees(g, seq)))

        def refuse(graph, u, v):
            raise RuntimeError("the oracle's walk called LabelledGraph.are_adjacent")

        monkeypatch.setattr(LabelledGraph, "are_adjacent", refuse)
        assert any(contained for _, _, contained in cases)
        for g, seq, contained in cases:
            assert oracle_count(g, seq) == len(contained)
            assert oracle_find(g, seq) == (contained[0] if contained else None)


    def test_walk_makes_no_python_call_per_word(self):
        """A profile hook counts Python-level calls over 2,520 words, none contained."""
        g, seq = build_extremal(2, 3)
        assert count_trees(seq) == 2520
        calls = [0]

        def profile(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            contained = oracle_count(g, seq)
        finally:
            sys.setprofile(None)
        assert contained == 0
        assert calls[0] < 50


class TestOracleWalkOrder:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_complete_graph_yields_every_word_in_order(self, n):
        g = complete_graph(n)
        for degrees in all_degree_sequences(n, n - 1):
            seq = validate_degree_sequence(degrees)
            # copy each word: the yielded list is the walk's own
            walk = degspan.oracle._contained_trees(g, seq, count_trees(seq))
            walked = [tuple(word) for word in walk]
            assert walked == sorted(set(itertools.permutations(canonical_word(seq))))


class TestOracleStopsAtFirstMissingEdge:
    @staticmethod
    def expected_pulls(g, seq):
        """Edges decoded when each word stops at its first missing edge, from the heap reference."""
        total = 0
        for word in sorted(set(itertools.permutations(canonical_word(seq)))):
            edges = reference_prufer_edges(word, seq.n)
            missing = (i for i, e in enumerate(edges) if not g.are_adjacent(*e))
            total += next(missing, seq.n - 2) + 1
        return total

    @staticmethod
    def cases():
        yield LabelledGraph.from_edges(6, []), validate_degree_sequence([2, 2, 2, 2, 1, 1])
        yield build_extremal(1, 3)
        yield build_extremal(2, 3)
        rng = random.Random(25)
        for n in (6, 7, 8):
            pairs = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.8]
            yield LabelledGraph.from_edges(n, pairs), random_degree_sequence(n, 3, rng)

    def test_edges_pulled_per_word(self, monkeypatch):
        """The walk's edge tests, one bisection each, counted by wrapping its ``bisect_left``."""
        bisect = degspan.oracle.bisect_left
        pulled = [0]

        def counting(row, v):
            pulled[0] += 1
            return bisect(row, v)

        monkeypatch.setattr(degspan.oracle, "bisect_left", counting)
        for g, seq in self.cases():
            pulled[0] = 0
            oracle_count(g, seq)
            assert pulled[0] == self.expected_pulls(g, seq)
            # each case has a word that is not contained, so whole-word decoding pulls more
            assert pulled[0] < count_trees(seq) * (seq.n - 1)
