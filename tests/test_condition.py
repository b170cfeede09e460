import json
from fractions import Fraction

import pytest
from hypothesis import given

from degspan import (
    LabelledGraph,
    build_extremal,
    check_condition,
    degree_sum_threshold,
    extremal_order,
    extremal_worst_sum,
    find_spanning_tree,
    min_nonadjacent_degree_sum,
    random_condition_graph,
    validate_degree_sequence,
    verify_tree,
)
from support import complete_graph, graphs, path_graph


class TestThreshold:
    def test_r3_examples(self):
        assert degree_sum_threshold(10, 3) == Fraction(29, 2)
        assert degree_sum_threshold(6, 3) == Fraction(17, 2)

    def test_r2_is_n_plus_one(self):
        assert degree_sum_threshold(4, 2) == 5

    def test_r4_example(self):
        assert degree_sum_threshold(10, 4) == Fraction(47, 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            degree_sum_threshold(10, 1)
        with pytest.raises(ValueError):
            degree_sum_threshold(3, 3)
        with pytest.raises(ValueError):
            degree_sum_threshold(4, 4)

    def test_integral_values_read_as_ints(self):
        assert degree_sum_threshold(5.0, 3) == degree_sum_threshold(5, 3.0) == 7
        g = random_condition_graph(12, 3, 1)
        report = check_condition(g, 3.0)
        assert report == check_condition(g, 3) and type(report.r) is int
        assert random_condition_graph(12.0, 3, 1) == g

    def test_non_integer_n_or_r_is_refused(self):
        with pytest.raises(ValueError, match=r"^n = 5\.5 is not an integer$"):
            degree_sum_threshold(5.5, 3)
        with pytest.raises(ValueError, match=r"^r = 2\.5 is not an integer$"):
            check_condition(path_graph(3), 2.5)
        with pytest.raises(ValueError, match=r"^r = '3' is not an integer$"):
            degree_sum_threshold(5, "3")
        with pytest.raises(ValueError, match=r"^n = 12\.5 is not an integer$"):
            random_condition_graph(12.5, 3, 1)

    def test_r3_closed_form_identity(self):
        # ((2r-3)n - (2r-5)) / (r-1) collapses to (3n-1)/2 at r = 3.
        for n in range(4, 1_000_001):
            assert degree_sum_threshold(n, 3) == Fraction(3 * n - 1, 2)

    def test_exact_rational_no_float(self):
        t = degree_sum_threshold(11, 4)
        assert isinstance(t, Fraction)
        assert t == Fraction(52, 3)


class TestCheckCondition:
    def test_complete_graph_vacuous(self):
        report = check_condition(complete_graph(5), 3)
        assert report.satisfied
        assert report.worst_pair is None

    def test_boundary_family_misses_by_half(self):
        g, _ = build_extremal(1, 3)
        report = check_condition(g, 3)
        assert not report.satisfied
        assert report.worst_pair == (0, 1, 8)
        assert report.threshold == Fraction(17, 2)

    def test_path_fails(self):
        report = check_condition(path_graph(4), 3)
        assert not report.satisfied
        assert report.worst_pair[2] == 2

    def test_r2_only_complete_satisfies(self):
        report = check_condition(path_graph(5), 2)
        assert not report.satisfied
        assert check_condition(complete_graph(5), 2).satisfied

    def test_r2_bound_is_met_by_a_non_complete_graph_from_n5(self):
        # a non-adjacent pair sums to at most 2(n - 2), which reaches n + 1 at n = 5
        k6_minus = LabelledGraph.from_edges(
            6, ((u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1))
        )
        report = check_condition(k6_minus, 2)
        assert report.satisfied
        assert report.worst_pair == (0, 1, 8) and report.threshold == 7
        seq = validate_degree_sequence([2, 2, 2, 2, 1, 1])
        res = find_spanning_tree(k6_minus, seq)
        assert res.ok and len(res.steps) == 1
        assert verify_tree(k6_minus, res.tree, seq)

    @given(graphs(min_n=4, max_n=8))
    def test_monotone_under_edge_addition(self, g):
        report = check_condition(g, 3)
        missing = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.are_adjacent(u, v)
        ]
        if not report.satisfied or not missing:
            return
        for extra in missing:
            bigger = LabelledGraph.from_edges(g.n, list(g.edges) + [extra])
            assert check_condition(bigger, 3).satisfied


class TestWorstSumIdentity:
    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_boundary_families_sit_one_step_below(self, k, r):
        g, _ = build_extremal(k, r)
        n = extremal_order(k, r)
        assert g.n == n
        worst = min_nonadjacent_degree_sum(g)
        assert worst is not None
        assert worst[1] == extremal_worst_sum(k, r)
        assert degree_sum_threshold(n, r) - worst[1] == Fraction(1, r - 1)


class TestReportSerialization:
    def test_json_roundtrip(self):
        report = check_condition(path_graph(4), 3)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload == {
            "n": 4,
            "r": 3,
            "threshold": "11/2",
            "satisfied": False,
            "worst_pair": {"u": 0, "v": 3, "sum": 2},
        }

    def test_json_complete_graph(self):
        payload = check_condition(complete_graph(5), 3).to_json_dict()
        assert payload["worst_pair"] is None
        assert payload["satisfied"] is True
        assert payload["threshold"] == "7"
