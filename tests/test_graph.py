import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degspan import (
    GraphParseError,
    LabelledGraph,
    check_condition,
    min_nonadjacent_degree_sum,
    parse_graph,
    random_condition_graph,
    serialize_graph,
)
from degspan.graph import normalized_edge
from support import complete_graph, graphs, path_graph


class TestParse:
    def test_path_on_four_vertices(self):
        g = parse_graph("4\n0 1\n1 2\n2 3\n")
        assert g.n == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_duplicate_lines_collapse(self):
        g = parse_graph("3\n0 1\n0 1\n")
        assert g.edges == ((0, 1),)

    def test_reversed_duplicate_collapses(self):
        g = parse_graph("3\n0 1\n1 0\n")
        assert g.edges == ((0, 1),)

    def test_self_loop_names_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("2\n0 0\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n4\n# an edge\n0 1\n\n2 3\n"
        g = parse_graph(text)
        assert g.n == 4
        assert g.edges == ((0, 1), (2, 3))

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphParseError) as exc:
            parse_graph("3\n0 3\n")
        assert exc.value.line == 2

    def test_malformed_edge_line(self):
        with pytest.raises(GraphParseError):
            parse_graph("3\n0 1 2\n")
        with pytest.raises(GraphParseError):
            parse_graph("3\n0 x\n")
        with pytest.raises(GraphParseError):  # only whole lines are comments
            parse_graph("3\n0 1 # x\n")

    def test_missing_vertex_count(self):
        with pytest.raises(GraphParseError):
            parse_graph("# only a comment\n")

    def test_bad_vertex_count(self):
        with pytest.raises(GraphParseError):
            parse_graph("zebra\n")

    def test_isolated_vertices_allowed(self):
        g = parse_graph("5\n0 1\n")
        assert g.degree(4) == 0

    @pytest.mark.parametrize("token", ["1_0", "+3", "-1", "\uff12", "\u00b2", "0x2", "2.0"])
    def test_numbers_are_ascii_digits_only(self, token):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(f"12\n{token} 2\n")
        assert exc.value.line == 2
        with pytest.raises(GraphParseError) as exc:
            parse_graph(f"12\n0 {token}\n")
        assert exc.value.line == 2
        with pytest.raises(GraphParseError) as exc:
            parse_graph(f"# count\n{token}\n")
        assert exc.value.line == 2


@given(graphs())
def test_serialize_parse_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g


@given(graphs(), st.randoms(use_true_random=False))
def test_from_edges_ignores_order_orientation_and_duplicates(g, rng):
    pairs = list(g.edges) + [(v, u) for u, v in g.edges]
    rng.shuffle(pairs)
    h = LabelledGraph.from_edges(g.n, pairs)
    assert h == g
    assert hash(h) == hash(g)
    assert h.edges == tuple(sorted({normalized_edge(u, v) for u, v in pairs}))


@given(graphs())
def test_degree_sum_is_twice_edge_count(g):
    assert sum(g.degree_vector()) == 2 * len(g.edges)


class TestAdjacency:
    def test_path_examples(self):
        g = path_graph(3)
        assert g.are_adjacent(0, 1)
        assert g.are_adjacent(1, 0)
        assert not g.are_adjacent(0, 2)

    def test_never_self_adjacent(self):
        g = complete_graph(4)
        for v in range(4):
            assert not g.are_adjacent(v, v)

    def test_index_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(IndexError):
            g.are_adjacent(0, 3)
        with pytest.raises(IndexError):
            g.are_adjacent(-1, 0)
        with pytest.raises(IndexError):
            g.degree(5)

    def test_is_complete(self):
        for n in (2, 3, 5):
            assert complete_graph(n).is_complete()
            minus_edge = LabelledGraph.from_edges(n, complete_graph(n).edges[1:])
            assert not minus_edge.is_complete()

    def test_construction_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            LabelledGraph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            LabelledGraph.from_edges(3, [(1, 1)])


class TestMinNonadjacentSum:
    def test_complete_graph_has_none(self):
        assert min_nonadjacent_degree_sum(complete_graph(4)) is None

    def test_path_on_three(self):
        assert min_nonadjacent_degree_sum(path_graph(3)) == ((0, 2), 2)

    def test_lexicographic_tie_break(self):
        # C4: both non-adjacent pairs sum to 4; (0, 2) < (1, 3).
        g = LabelledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert min_nonadjacent_degree_sum(g) == ((0, 2), 4)

    @given(graphs(min_n=3, max_n=8))
    def test_is_minimum_over_all_nonadjacent_pairs(self, g):
        result = min_nonadjacent_degree_sum(g)
        sums = {
            (u, v): g.degree(u) + g.degree(v)
            for u, v in itertools.combinations(range(g.n), 2)
            if not g.are_adjacent(u, v)
        }
        if not sums:
            assert result is None
        else:
            pair, s = result
            assert s == min(sums.values())
            assert sums[pair] == s

    def test_cross_check_at_n100(self):
        import random

        rng = random.Random(17)
        n = 100
        g = LabelledGraph.from_edges(
            n,
            (
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ),
        )
        pair, s = min_nonadjacent_degree_sum(g)
        brute = min(
            g.degree(u) + g.degree(v)
            for u, v in itertools.combinations(range(n), 2)
            if not g.are_adjacent(u, v)
        )
        assert s == brute
        assert not g.are_adjacent(*pair)


class TestRandomConditionGraph:
    def test_deterministic_in_seed(self):
        a = random_condition_graph(12, 3, seed=7)
        b = random_condition_graph(12, 3, seed=7)
        assert a == b

    def test_different_seeds_usually_differ(self):
        outputs = {random_condition_graph(15, 3, seed=s).edges for s in range(6)}
        assert len(outputs) > 1

    def test_small_order_forces_complete(self):
        # At n = 4 the r = 3 bound (11/2) exceeds any non-adjacent sum.
        g = random_condition_graph(4, 3, seed=1)
        assert g.is_complete()

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_satisfies_condition(self, r, seed):
        n = 14
        g = random_condition_graph(n, r, seed=seed)
        assert check_condition(g, r).satisfied

    def test_n10_r3_pairs_sum_at_least_15(self):
        g = random_condition_graph(10, 3, seed=3)
        for u, v in itertools.combinations(range(10), 2):
            if not g.are_adjacent(u, v):
                assert g.degree(u) + g.degree(v) >= 15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            random_condition_graph(3, 3, seed=0)
        with pytest.raises(ValueError):
            random_condition_graph(10, 1, seed=0)
