import itertools
import random

import pytest
from hypothesis import given, settings

import degspan.solver
from degspan import (
    LabelledGraph,
    LabelledTree,
    SolverInvariantError,
    apply_exchange,
    build_extremal,
    build_witness,
    check_condition,
    compute_cut_sets,
    find_spanning_tree,
    foreign_edges,
    is_tree,
    oracle_find,
    orient_forest,
    random_condition_graph,
    random_degree_sequence,
    realize_tree,
    validate_degree_sequence,
    validate_witness,
    verify_tree,
)
from support import (
    complete_graph,
    cycle_graph,
    graph_with_sequence,
    matchings,
    path_graph,
)


class TestOrientForest:
    def test_star_split(self):
        star = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        f = orient_forest(star, 0, 1)
        assert f.removed_edge == (0, 1)
        assert f.size_u == 3 and f.size_v == 1
        assert f.parent[0] is None and f.parent[1] is None
        assert f.parent[2] == 0 and f.parent[3] == 0
        assert f.children[0] == (2, 3)

    def test_path_split(self):
        path = LabelledTree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        f = orient_forest(path, 1, 2)
        assert f.component == (0, 0, 1, 1)
        assert f.parent[0] == 1 and f.parent[3] == 2

    def test_partition_sizes(self):
        seq = validate_degree_sequence([3, 2, 2, 2, 1, 2, 1, 1])
        t = realize_tree(seq)
        for u, v in t.edges:
            f = orient_forest(t, u, v)
            assert f.size_u + f.size_v == t.n
            assert f.size_u == sum(1 for c in f.component if c == 0)

    def test_requires_tree_edge(self):
        path = LabelledTree.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            orient_forest(path, 0, 2)

    def test_parents_walk_to_roots(self):
        seq = validate_degree_sequence([2, 3, 2, 2, 1, 1, 2, 2, 1])
        t = realize_tree(seq)
        u, v = t.edges[2]
        f = orient_forest(t, u, v)
        for x in range(t.n):
            y = x
            while f.parent[y] is not None:
                y = f.parent[y]
            assert y == (u if f.component[x] == 0 else v)


class TestComputeCutSets:
    def test_empty_hooks_when_root_has_no_inside_neighbors(self):
        # g has no edges at vertex 0, so the u side contributes nothing.
        g = LabelledGraph.from_edges(4, [(1, 2), (2, 3), (1, 3)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        f = orient_forest(t, 0, 1)
        c = compute_cut_sets(g, f)
        assert c.hooks_u == frozenset()
        assert c.u_nbrs_same == 0

    def test_boundary_instance_stalls_immediately(self):
        g, seq = build_extremal(1, 3)
        t = realize_tree(seq)
        assert foreign_edges(g, t) == ((0, 1),)
        f = orient_forest(t, 0, 1)
        c = compute_cut_sets(g, f)
        assert c.hooks_u & c.bridges_u == frozenset()
        assert c.hooks_v & c.bridges_v == frozenset()
        assert c.candidate is None
        assert c.hooks_u == frozenset({0})
        assert c.bridges_u == frozenset({2, 3})

    def test_constructed_candidate(self):
        # u-side path 0 -> 1 -> 2 with (0,2) and (3,1) graph edges: vertex 1
        # is both hook and bridge, so drop (1,2), add (0,2) and (3,1).
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        f = orient_forest(t, 0, 3)
        c = compute_cut_sets(g, f)
        assert 1 in c.hooks_u & c.bridges_u
        x = c.candidate
        assert x is not None
        assert x.side == "u"
        assert x.drop_tree == (1, 2)
        assert x.add_1 == (0, 2)
        assert x.add_2 == (3, 1)

    def test_bridge_counts_match_far_neighbor_counts(self):
        g = random_condition_graph(12, 3, seed=2)
        seq = random_degree_sequence(12, 3, random.Random(2))
        t = realize_tree(seq)
        for u, v in t.edges:
            f = orient_forest(t, u, v)
            c = compute_cut_sets(g, f)
            assert len(c.bridges_u) == c.v_nbrs_other
            assert len(c.bridges_v) == c.u_nbrs_other


class TestApplyExchange:
    def test_rewire_preserves_degrees(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        c = compute_cut_sets(g, orient_forest(t, 0, 3))
        t2 = apply_exchange(t, c.candidate)
        assert t2.edges == ((0, 1), (0, 2), (1, 3))
        assert t2.degree_vector() == t.degree_vector()
        assert is_tree(t2)

    def test_phi_drops_by_one_when_dropped_edge_is_real(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        assert len(foreign_edges(g, t)) == 1
        c = compute_cut_sets(g, orient_forest(t, 0, 3))
        t2 = apply_exchange(t, c.candidate)
        assert len(foreign_edges(g, t2)) == 0

    def test_phi_drops_by_two_when_dropped_edge_is_missing_too(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        assert len(foreign_edges(g, t)) == 3
        c = compute_cut_sets(g, orient_forest(t, 0, 3))
        assert c.candidate.drop_tree == (1, 2)
        t2 = apply_exchange(t, c.candidate)
        assert len(foreign_edges(g, t2)) == 1

    def test_stale_exchange_is_an_internal_error(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        c = compute_cut_sets(g, orient_forest(t, 0, 3))
        t2 = apply_exchange(t, c.candidate)
        with pytest.raises(RuntimeError):
            apply_exchange(t2, c.candidate)


class TestFindSpanningTree:
    def test_complete_graph_path_degrees(self):
        seq = validate_degree_sequence([2, 2, 1, 1])
        res = find_spanning_tree(complete_graph(4), seq)
        assert res.ok
        assert res.tree.degree_vector() == (2, 2, 1, 1)
        assert verify_tree(complete_graph(4), res.tree, seq)

    def test_cycle_yields_hamiltonian_path_after_one_exchange(self):
        g = cycle_graph(5)
        seq = validate_degree_sequence([2, 2, 2, 1, 1])
        res = find_spanning_tree(g, seq)
        assert res.ok
        assert len(res.steps) == 1
        assert verify_tree(g, res.tree, seq)

    def test_boundary_instance_returns_witness(self):
        g, seq = build_extremal(1, 3)
        res = find_spanning_tree(g, seq)
        assert not res.ok
        w = res.witness
        assert (w.u, w.v) == (0, 1)
        assert validate_witness(g, w)
        assert not w.contradicts_condition

    def test_disconnected_graph_stalls(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3)])
        seq = validate_degree_sequence([2, 2, 1, 1])
        res = find_spanning_tree(g, seq)
        assert not res.ok
        assert validate_witness(g, res.witness)

    def test_degree_change_raises_invariant_error(self, monkeypatch):
        star = LabelledTree.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        monkeypatch.setattr(degspan.solver, "apply_exchange", lambda t, x: star)
        seq = validate_degree_sequence([2, 2, 2, 1, 1])
        with pytest.raises(SolverInvariantError, match="degree vector"):
            find_spanning_tree(cycle_graph(5), seq)

    def test_two_vertices(self):
        seq = validate_degree_sequence([1, 1])
        ok = find_spanning_tree(LabelledGraph.from_edges(2, [(0, 1)]), seq)
        assert ok.ok and ok.tree.edges == ((0, 1),)
        bad = find_spanning_tree(LabelledGraph.from_edges(2, []), seq)
        assert not bad.ok
        assert validate_witness(LabelledGraph.from_edges(2, []), bad.witness)

    def test_three_vertices_unique_tree(self):
        seq = validate_degree_sequence([2, 1, 1])
        g = LabelledGraph.from_edges(3, [(0, 1), (0, 2)])
        assert find_spanning_tree(g, seq).ok
        g2 = LabelledGraph.from_edges(3, [(0, 1), (1, 2)])
        res = find_spanning_tree(g2, seq)
        assert not res.ok
        assert validate_witness(g2, res.witness)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            find_spanning_tree(complete_graph(4), validate_degree_sequence([2, 1, 1]))

    def test_random_condition_instance_agrees_with_oracle(self):
        rng = random.Random(100)
        g = random_condition_graph(10, 3, seed=100)
        for _ in range(5):
            seq = random_degree_sequence(10, 3, rng)
            res = find_spanning_tree(g, seq)
            assert res.ok
            assert verify_tree(g, res.tree, seq)
            assert oracle_find(g, seq) is not None

    def test_exchange_trace_replays(self):
        rng = random.Random(42)
        for trial in range(20):
            n = rng.randint(6, 24)
            g = random_condition_graph(n, 3, seed=trial)
            seq = random_degree_sequence(n, 3, rng)
            res = find_spanning_tree(g, seq)
            assert res.ok
            t = realize_tree(seq)
            phi = len(foreign_edges(g, t))
            assert len(res.steps) <= n - 1
            for step in res.steps:
                x = step.exchange
                assert g.are_adjacent(*x.add_1)
                assert g.are_adjacent(*x.add_2)
                t = apply_exchange(t, x)
                assert is_tree(t)
                assert t.degree_vector() == seq.degrees
                new_phi = len(foreign_edges(g, t))
                assert new_phi == step.phi_after
                assert new_phi < phi
                phi = new_phi
            assert phi == 0
            assert t == res.tree


class TestGuarantee:
    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_randomized_guarantee(self, r):
        rng = random.Random(r)
        for trial in range(60):
            n = rng.randint(max(4, r + 1), 40)
            g = random_condition_graph(n, r, seed=rng.randrange(2**32))
            seq = random_degree_sequence(n, r, rng)
            res = find_spanning_tree(g, seq)
            assert res.ok, f"stalled on guaranteed instance n={n} r={r} trial={trial}"
            assert verify_tree(g, res.tree, seq)

    def test_exhaustive_n7(self):
        # n = 7 is the smallest order where non-complete graphs can meet the
        # r = 3 bound; those graphs are exactly complements of matchings.
        all_pairs = set(itertools.combinations(range(7), 2))
        seqs = [
            validate_degree_sequence(s)
            for s in itertools.product((1, 2, 3), repeat=7)
            if sum(s) == 12
        ]
        solved = 0
        for m in matchings(7):
            g = LabelledGraph.from_edges(7, all_pairs - set(m))
            assert check_condition(g, 3).satisfied
            for seq in seqs:
                res = find_spanning_tree(g, seq)
                assert res.ok
                assert verify_tree(g, res.tree, seq)
                solved += 1
        assert solved == len(matchings(7)) * len(seqs)

    def test_only_matching_complements_satisfy_at_n7(self):
        matching_complements = 0
        for g in _sample_n7_graphs():
            if check_condition(g, 3).satisfied:
                complement = [
                    (u, v)
                    for u, v in itertools.combinations(range(7), 2)
                    if not g.are_adjacent(u, v)
                ]
                degree = {}
                for u, v in complement:
                    degree[u] = degree.get(u, 0) + 1
                    degree[v] = degree.get(v, 0) + 1
                assert all(d == 1 for d in degree.values())
                matching_complements += 1
        assert matching_complements > 0


def _sample_n7_graphs():
    rng = random.Random(7)
    pairs = list(itertools.combinations(range(7), 2))
    for _ in range(400):
        keep = [p for p in pairs if rng.random() < 0.9]
        yield LabelledGraph.from_edges(7, keep)


class TestWitness:
    def test_boundary_witness_numbers(self):
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        assert w.size_u + w.size_v == 6
        assert w.degree_sum == 8
        final = w.chain[-1]
        assert (final.lhs, final.rhs) == (16, 16)
        assert final.holds

    def test_chain_holds_and_revalidates(self):
        for k, r in [(1, 3), (2, 3), (1, 4), (1, 5), (2, 4)]:
            g, seq = build_extremal(k, r)
            res = find_spanning_tree(g, seq)
            assert not res.ok
            assert all(ineq.holds for ineq in res.witness.chain)
            assert validate_witness(g, res.witness)

    def test_build_witness_requires_stall(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        f = orient_forest(t, 0, 3)
        c = compute_cut_sets(g, f)
        assert c.candidate is not None
        with pytest.raises(ValueError):
            build_witness(g, t, f, c, r=2)

    def test_tampered_witness_fails_validation(self):
        import dataclasses

        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        assert validate_witness(g, w)
        tampered = dataclasses.replace(w, bridges_u=w.bridges_u + 1)
        assert not validate_witness(g, tampered)
        tampered2 = dataclasses.replace(w, degree_sum=w.degree_sum + 2)
        assert not validate_witness(g, tampered2)

    @settings(deadline=None)
    @given(graph_with_sequence(min_n=4, max_n=8, cap=3))
    def test_any_emitted_witness_validates(self, case):
        g, seq = case
        res = find_spanning_tree(g, seq)
        if res.ok:
            assert verify_tree(g, res.tree, seq)
        else:
            assert validate_witness(g, res.witness)
            assert not res.witness.contradicts_condition


class TestVerifyTree:
    def test_accepts_solver_output(self):
        g = random_condition_graph(12, 3, seed=9)
        seq = random_degree_sequence(12, 3, random.Random(9))
        res = find_spanning_tree(g, seq)
        assert verify_tree(g, res.tree, seq).ok

    def test_foreign_edge_rejected(self):
        g = path_graph(4)
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        seq = validate_degree_sequence([1, 3, 1, 1])
        out = verify_tree(g, t, seq)
        assert not out
        assert "not in graph" in out.reason

    def test_degree_mismatch_names_vertex(self):
        g = complete_graph(4)
        t = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        seq = validate_degree_sequence([1, 3, 1, 1])
        out = verify_tree(g, t, seq)
        assert not out
        assert "vertex 0" in out.reason

    def test_cycle_rejected(self):
        g = complete_graph(4)
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 2)])
        out = verify_tree(g, t, validate_degree_sequence([2, 2, 1, 1]))
        assert not out
        assert "cycle" in out.reason

    def test_wrong_edge_count_rejected(self):
        g = complete_graph(4)
        t = LabelledTree.from_edges(4, [(0, 1)])
        out = verify_tree(g, t, validate_degree_sequence([2, 2, 1, 1]))
        assert not out
