import itertools
from fractions import Fraction

import pytest

from degspan import (
    build_extremal,
    check_condition,
    count_trees,
    degree_sum_threshold,
    extremal_order,
    extremal_worst_sum,
    find_spanning_tree,
    min_nonadjacent_degree_sum,
    oracle_count,
    validate_witness,
)
from degspan.graph import MAX_GENERATED_N, LabelledGraph


def reference_extremal_graph(k, r):
    """Every pair of the 2k(r-1) + 2 vertices except those between X and Y."""
    n = 2 * k * (r - 1) + 2
    return LabelledGraph.from_edges(
        n, ((u, v) for u, v in itertools.combinations(range(n), 2) if not u < k <= v < 2 * k)
    )


class TestBuild:
    def test_k2_r3_layout(self):
        g, seq = build_extremal(2, 3)
        assert g.n == 10
        missing = {
            (u, v)
            for u, v in itertools.combinations(range(10), 2)
            if not g.are_adjacent(u, v)
        }
        # exactly the four X-Y pairs are absent
        assert missing == {(0, 2), (0, 3), (1, 2), (1, 3)}
        assert seq.degrees == (3, 3, 3, 3, 1, 1, 1, 1, 1, 1)

    def test_k1_r3_degrees(self):
        g, seq = build_extremal(1, 3)
        assert g.n == 6
        assert g.degree(0) == 4
        assert g.degree(1) == 4
        assert all(g.degree(z) == 5 for z in range(2, 6))
        assert seq.degrees == (3, 3, 1, 1, 1, 1)

    def test_k1_r4_sizes(self):
        g, seq = build_extremal(1, 4)
        assert g.n == 8
        assert extremal_order(1, 4) == 8
        assert seq.degrees == (4, 4) + (1,) * 6

    def test_sequence_is_always_valid(self):
        for k in range(1, 5):
            for r in (3, 4, 5):
                g, seq = build_extremal(k, r)
                assert g.n == 2 * k * (r - 1) + 2
                assert sum(seq.degrees) == 2 * (g.n - 1)

    @pytest.mark.parametrize("k, r", [(1, 3), (2, 3), (3, 3), (1, 4), (2, 5), (4, 4)])
    def test_equals_complete_graph_minus_the_cross_pairs(self, k, r):
        assert build_extremal(k, r)[0] == reference_extremal_graph(k, r)

    def test_equals_reference_at_the_generator_limit(self):
        k, r = (MAX_GENERATED_N - 2) // 6, 4
        g, _ = build_extremal(k, r)
        assert g.n == MAX_GENERATED_N
        assert g == reference_extremal_graph(k, r)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            build_extremal(0, 3)
        with pytest.raises(ValueError):
            build_extremal(1, 2)

    def test_integral_values_read_as_ints(self):
        assert build_extremal(1.0, 3.0) == build_extremal(1, 3)
        for k, r in ((1.0, 3), (1, 3.0), (2.0, 4.0)):
            assert extremal_order(k, r) == extremal_order(int(k), int(r))
            assert type(extremal_order(k, r)) is int
            assert extremal_worst_sum(k, r) == extremal_worst_sum(int(k), int(r))
            assert type(extremal_worst_sum(k, r)) is int

    @pytest.mark.parametrize("f", [build_extremal, extremal_order, extremal_worst_sum])
    def test_non_integer_k_or_r_is_refused(self, f):
        with pytest.raises(ValueError, match=r"^k = 1\.5 is not an integer$"):
            f(1.5, 3)
        with pytest.raises(ValueError, match=r"^r = 3\.5 is not an integer$"):
            f(1, 3.5)
        with pytest.raises(ValueError, match=r"^r = '3' is not an integer$"):
            f(1, "3")


class TestWorstSum:
    def test_closed_forms(self):
        assert extremal_worst_sum(2, 3) == 14
        assert extremal_worst_sum(1, 3) == 8
        assert extremal_worst_sum(1, 4) == 12

    def test_r3_closed_forms_agree(self):
        for k in range(1, 6):
            n = 4 * k + 2
            assert extremal_order(k, 3) == n
            assert extremal_worst_sum(k, 3) == 6 * k + 2
            assert Fraction(extremal_worst_sum(k, 3)) == Fraction(3 * n - 2, 2)

    def test_r4_gap_is_one_third(self):
        worst = extremal_worst_sum(1, 4)
        assert degree_sum_threshold(8, 4) - worst == Fraction(1, 3)

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_formula_matches_graph_scan(self, k, r):
        g, _ = build_extremal(k, r)
        worst = min_nonadjacent_degree_sum(g)
        assert worst is not None
        assert worst[1] == extremal_worst_sum(k, r)


class TestInfeasibility:
    @pytest.mark.parametrize("k", [1, 2])
    def test_oracle_confirms_no_tree(self, k):
        g, seq = build_extremal(k, 3)
        assert oracle_count(g, seq) == 0

    def test_solver_stalls_with_valid_witness(self):
        for k, r in [(1, 3), (2, 3), (1, 4)]:
            g, seq = build_extremal(k, r)
            res = find_spanning_tree(g, seq)
            assert not res.ok
            assert validate_witness(g, res.witness)
            assert not res.witness.contradicts_condition

    def test_condition_just_misses(self):
        for k, r in [(1, 3), (2, 3), (1, 4), (1, 5)]:
            g, _ = build_extremal(k, r)
            report = check_condition(g, r)
            assert not report.satisfied
            assert report.threshold - report.worst_pair[2] == Fraction(1, r - 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_internal_part_is_disconnected(self, k):
        # a tree with leaves exactly on Z would have to span X u Y alone
        g, _ = build_extremal(k, 3)
        xy = list(range(2 * k))
        seen = {xy[0]}
        frontier = [xy[0]]
        while frontier:
            x = frontier.pop()
            for y in g.adjacency[x]:
                if y in set(xy) and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        assert len(seen) < len(xy)

    def test_count_trees_for_small_bad_sequences(self):
        _, seq1 = build_extremal(1, 3)
        assert count_trees(seq1) == 6
        _, seq2 = build_extremal(2, 3)
        assert count_trees(seq2) == 2520
