import collections
import itertools
import random
import sys
from typing import ForwardRef

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degspan.cli
import degspan.solver
from degspan import (
    ConditionReport,
    DegreeSequence,
    Exchange,
    ExchangeStep,
    Inequality,
    InfeasibilityWitness,
    LabelledGraph,
    LabelledTree,
    SolveResult,
    SolverInvariantError,
    VerifyResult,
    build_extremal,
    check_condition,
    find_spanning_tree,
    oracle_find,
    random_condition_graph,
    random_degree_sequence,
    realize_tree,
    validate_degree_sequence,
    validate_witness,
    verify_tree,
)
from degspan.solver import (
    CutAnalysis,
    RootedForest,
    apply_exchange,
    build_witness,
    compute_cut_sets,
    foreign_edges,
    orient_forest,
)
from degspan.tree import tree_defect
from support import (
    claimed_tree_rows,
    complete_graph,
    cycle_graph,
    decode,
    dense_host,
    graph_with_sequence,
    graphs,
    graphs_with_one_sided_entry,
    low_degree_sequence,
    matchings,
    path_graph,
    prufer_words,
    reference_exchange,
    reference_find_spanning_tree,
    reference_is_tree,
    reference_rewire,
    reference_split,
)
from support import compute_cut_sets as reference_cut_sets  # the comprehension-based sets


class TestOrientForest:
    def test_star_split(self):
        star = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        f = orient_forest(star, 0, 1)
        assert (f.side_u[0], f.side_v[0]) == (0, 1)
        assert len(f.side_u) == 3 and len(f.side_v) == 1
        assert f.parent[0] == 0 and f.parent[1] == 1
        assert f.parent[2] == 0 and f.parent[3] == 0

    def test_path_split(self):
        path = LabelledTree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        f = orient_forest(path, 1, 2)
        assert sorted(f.side_u) == [0, 1] and sorted(f.side_v) == [2, 3]
        assert f.parent[0] == 1 and f.parent[3] == 2

    def test_partition_sizes(self):
        seq = validate_degree_sequence([3, 2, 2, 2, 1, 2, 1, 1])
        t = realize_tree(seq)
        for u, v in t.edges:
            f = orient_forest(t, u, v)
            assert len(f.side_u) + len(f.side_v) == t.n
            assert sorted(f.side_u + f.side_v) == list(range(t.n))

    def test_requires_tree_edge(self):
        path = LabelledTree.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            orient_forest(path, 0, 2)

    def test_bisects_a_row_so_a_descending_row_hides_its_edges(self):
        # README: row 0 descends, so the bisection misses both of its real edges
        t = LabelledTree(((2, 1), (0,), (0,)))
        assert tree_defect(t) == "not a tree: row of vertex 0 is not strictly ascending at 1"
        for v in (1, 2):
            with pytest.raises(ValueError, match=rf"^\(0, {v}\) is not a tree edge$"):
                orient_forest(t, 0, v)

    def test_rejects_out_of_range_vertex(self):
        path = LabelledTree.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError) as exc:
            orient_forest(path, 2, 3)
        assert str(exc.value) == "vertices (2, 3) out of range"

    def test_rejects_split_that_misses_vertices(self):
        # a triangle plus a separate edge: splitting (3, 4) reaches only 3 and 4
        t = LabelledTree.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        with pytest.raises(ValueError) as exc:
            orient_forest(t, 3, 4)
        assert str(exc.value) == "input is not a tree: some vertices unreachable from the split"

    def test_argument_order_does_not_matter(self):
        # Vertex 3 hangs off root 0; the exchange is on 0's side either way.
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        f = orient_forest(t, 3, 0)
        assert f == orient_forest(t, 0, 3)
        assert sorted(f.side_u) == [0, 1, 2] and f.side_v == (3,)
        c = compute_cut_sets(g, f)
        assert c.hooks_u & c.bridges_u

    def test_parents_walk_to_roots(self):
        seq = validate_degree_sequence([2, 3, 2, 2, 1, 1, 2, 2, 1])
        t = realize_tree(seq)
        u, v = t.edges[2]
        f = orient_forest(t, u, v)
        for x in range(t.n):
            y = x
            while f.parent[y] != y:
                y = f.parent[y]
            assert y == (u if x in f.side_u else v)

    @given(prufer_words(max_n=12))
    def test_drawn_trees_split_into_two_rooted_sides(self, case):
        n, word = case
        t = decode(word, n)
        for u, v in t.edges:  # u < v
            f = orient_forest(t, u, v)
            assert f == orient_forest(t, v, u) == degspan.solver._split(t.adjacency, u, v)
            assert f.side_u[0] == u and f.side_v[0] == v
            assert sorted(f.side_u + f.side_v) == list(range(n))
            for side in (f.side_u, f.side_v):
                root = side[0]
                assert f.parent[root] == root
                for x in side[1:]:
                    assert f.parent[x] != x
                    y = x
                    for _ in range(n):  # n steps reach the root and stay there
                        y = f.parent[y]
                    assert y == root


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
        assert build_witness(g, t, f) == find_spanning_tree(g, seq).witness
        assert c.hooks_u == frozenset({0})
        assert c.bridges_u == frozenset({2, 3})

    def test_constructed_candidate(self):
        # u-side path 0 -> 1 -> 2 with (0,2) and (3,1) graph edges: vertex 1
        # is both hook and bridge, so drop (1,2), add (0,2) and (3,1).
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        f, walks = _walks(g, t, 0, 3)
        c = compute_cut_sets(g, f)
        assert 1 in c.hooks_u & c.bridges_u
        x = walks["u"]
        assert x is not None
        assert x.side == "u"
        assert x.drop_tree == (1, 2)
        assert x.add_1 == (0, 2)
        assert x.add_2 == (3, 1)

    def test_rows_that_do_not_mirror_reach_the_root_bridge_guard(self):
        # row 2 lists 0 but row 0 does not list 2, so 0 is a bridge across (0, 2)
        g = LabelledGraph(((1,), (0, 2), (0, 1)))
        f = orient_forest(LabelledTree.from_edges(3, [(1, 0), (0, 2)]), 0, 2)
        with pytest.raises(SolverInvariantError) as exc:
            compute_cut_sets(g, f)
        assert str(exc.value) == "a root is a bridge across the missing edge (0, 2)"

    def test_bridge_counts_match_far_neighbor_counts(self):
        g = random_condition_graph(12, 3, seed=2)
        seq = random_degree_sequence(12, 3, random.Random(2))
        t = realize_tree(seq)
        for u, v in t.edges:
            f = orient_forest(t, u, v)
            c = compute_cut_sets(g, f)
            assert len(c.bridges_u) == sum(g.are_adjacent(v, x) for x in f.side_u)
            assert len(c.bridges_v) == sum(g.are_adjacent(u, x) for x in f.side_v)
            assert len(c.bridges_u) + c.v_nbrs_same == g.degree(v)
            assert len(c.bridges_v) + c.u_nbrs_same == g.degree(u)


class TestApplyExchange:
    def test_rewire_preserves_degrees(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        t2 = apply_exchange(t, reference_exchange(g, orient_forest(t, 0, 3)))
        assert t2.edges == ((0, 1), (0, 2), (1, 3))
        assert t2.degree_vector() == t.degree_vector()
        assert tree_defect(t2) is None

    def test_phi_drops_by_one_when_dropped_edge_is_real(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        assert len(foreign_edges(g, t)) == 1
        t2 = apply_exchange(t, reference_exchange(g, orient_forest(t, 0, 3)))
        assert len(foreign_edges(g, t2)) == 0

    def test_phi_drops_by_two_when_dropped_edge_is_missing_too(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        assert len(foreign_edges(g, t)) == 3
        x = reference_exchange(g, orient_forest(t, 0, 3))
        assert x.drop_tree == (1, 2)
        t2 = apply_exchange(t, x)
        assert len(foreign_edges(g, t2)) == 1

    def test_stale_exchange_is_an_internal_error(self):
        g = LabelledGraph.from_edges(4, [(0, 2), (1, 3), (0, 1), (1, 2)])
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        x = reference_exchange(g, orient_forest(t, 0, 3))
        t2 = apply_exchange(t, x)
        with pytest.raises(SolverInvariantError):
            apply_exchange(t2, x)

    def test_exchange_naming_vertex_n_is_an_internal_error(self):
        t = LabelledTree.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        x = Exchange(side="u", drop_foreign=(0, 3), drop_tree=(1, 2), add_1=(0, 2), add_2=(3, 4))
        with pytest.raises(SolverInvariantError) as exc:
            apply_exchange(t, x)
        assert str(exc.value) == f"exchange {x} names a vertex outside the tree"


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
        # The near root gains the adopted child without the rest of the exchange.
        monkeypatch.setattr(
            degspan.solver, "_rewire", lambda adj, x: adj[x.add_1[0]].append(x.add_1[1])
        )
        seq = validate_degree_sequence([2, 2, 2, 1, 1])
        with pytest.raises(SolverInvariantError, match="degree vector"):
            find_spanning_tree(cycle_graph(5), seq)

    @pytest.mark.parametrize("change, message", [
        ({"add_2": (3, 1)}, "not a graph edge"),
        ({"add_1": (0, 1)}, "already a tree edge"),
        ({"drop_tree": (3, 4)}, "not a tree edge"),
    ])
    def test_bad_exchange_raises_invariant_error(self, monkeypatch, change, message):
        # On C5 the only exchange drops (0, 3) and (2, 4) and adds (0, 4) and (3, 2).
        exchange = degspan.solver._exchange

        def tampered(*args):
            x = exchange(*args)
            return x and x._replace(**change)

        monkeypatch.setattr(degspan.solver, "_exchange", tampered)
        with pytest.raises(SolverInvariantError, match=message):
            find_spanning_tree(cycle_graph(5), validate_degree_sequence([2, 2, 2, 1, 1]))

    def test_disconnected_split_raises_invariant_error(self, monkeypatch):
        # The right degrees on a triangle plus a separate edge, not a tree.
        fake = [(0, 1), (1, 2), (0, 2), (3, 4)]
        monkeypatch.setattr(degspan.solver, "prufer_edges", lambda word, degrees: fake)
        with pytest.raises(SolverInvariantError, match="kept orientation does not span the tree"):
            find_spanning_tree(cycle_graph(5), validate_degree_sequence([2, 2, 2, 1, 1]))

    @pytest.mark.parametrize("degrees, message", [
        # found after one exchange: the whole-tree check before the tree is returned
        ([2, 2, 2, 1, 1], "kept orientation does not span the tree"),
        # stalls after one exchange: the check of the split the witness is built on
        ([1, 1, 1, 2, 3], "kept orientation does not span the tree"),
        # the second exchange's missing edge hangs elsewhere in the drifted orientation
        ([2, 2, 1, 2, 1], r"missing edge \(1, 3\) is not a parent-child pair"),
    ])
    def test_drifted_orientation_raises_invariant_error(self, monkeypatch, degrees, message):
        # Naming the dropped tree edge child first passes every check of _rewire,
        # but the loop then re-hangs the parent w where it should re-hang y.
        exchange = degspan.solver._exchange

        def tampered(*args):
            x = exchange(*args)
            return x and x._replace(drop_tree=x.drop_tree[::-1])

        monkeypatch.setattr(degspan.solver, "_exchange", tampered)
        with pytest.raises(SolverInvariantError, match=message):
            find_spanning_tree(cycle_graph(5), validate_degree_sequence(degrees))

    def test_rows_that_do_not_mirror_reach_the_loop_root_bridge_guard(self):
        # rows 2 and 3 do not list 0, so the star on 0 misses (0, 2), which row 0 lists
        g = LabelledGraph(((1, 2, 3), (0, 2), (1,), ()))
        with pytest.raises(SolverInvariantError) as exc:
            find_spanning_tree(g, validate_degree_sequence([3, 1, 1, 1]))
        assert str(exc.value) == "a root is a bridge across the missing edge (0, 2)"

    def test_stall_does_not_orient_again(self, monkeypatch):
        g, seq = build_extremal(1, 3)
        expected = find_spanning_tree(g, seq).witness

        def fail(*args):
            raise AssertionError("orient_forest called")

        monkeypatch.setattr(degspan.solver, "orient_forest", fail)
        assert find_spanning_tree(g, seq).witness == expected

    def test_stall_walks_each_side_once_and_its_validation_walks_none(self, monkeypatch):
        exchange = degspan.solver._exchange
        calls = []
        monkeypatch.setattr(degspan.solver, "_exchange",
                            lambda *args: calls.append("u" if args[1] < args[2] else "v")
                            or exchange(*args))
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        assert calls == ["u", "v"]
        calls.clear()
        assert validate_witness(g, w)
        assert calls == []

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
                assert tree_defect(t) is None
                assert t.degree_vector() == seq.degrees
                new_phi = len(foreign_edges(g, t))
                assert new_phi == step.phi_after
                assert new_phi < phi
                phi = new_phi
            assert phi == 0
            assert t == res.tree

    def test_loop_agrees_with_public_steps_off_bound(self):
        rng = random.Random(5)
        outcomes = []
        for _ in range(80):
            n = rng.randint(6, 12)
            pairs = itertools.combinations(range(n), 2)
            g = LabelledGraph.from_edges(n, (e for e in pairs if rng.random() < 0.6))
            seq = random_degree_sequence(n, 3, rng)
            res = find_spanning_tree(g, seq)
            t = realize_tree(seq)
            for step in res.steps:
                t = apply_exchange(t, step.exchange)
            if res.ok:
                assert t == res.tree
            else:
                w = res.witness
                f = orient_forest(t, w.u, w.v)
                assert build_witness(g, t, f) == w
                assert validate_witness(g, w)
            outcomes.append(res.ok)
        assert outcomes.count(True) >= 10 and outcomes.count(False) >= 10


def _exchange_states():
    """(g, seq, state tree, solve step or None at a stall) for every state of seeded solves.

    Half the hosts meet the r bound and half are sparse G(n, p) off it, so
    the states include stalls after several exchanges.
    """
    for i in range(24):
        rng = random.Random(30_000 + i)
        n = rng.randint(8, 150)
        r = rng.choice((3, 4))
        on_bound = i % 2 == 0
        p = rng.uniform(0.5, 0.8) if on_bound else rng.uniform(0.05, 0.4)
        g = dense_host(n, r, p, rng, repair=on_bound)
        seq = random_degree_sequence(n, r, rng) if i % 3 else low_degree_sequence(g, r, rng)
        res = find_spanning_tree(g, seq)
        t = realize_tree(seq)
        for step in res.steps:
            yield g, seq, t, step
            t = apply_exchange(t, step.exchange)
        if not res.ok:
            assert t == res.witness.tree
            yield g, seq, t, None


class TestCutSetsReference:
    """The set-algebra exchange rule against the comprehension-based reference."""

    def test_cut_sets_match_the_reference_on_every_state(self):
        states = stalls = 0
        for g, _, t, step in _exchange_states():
            for u, v in foreign_edges(g, t)[:3]:
                f = orient_forest(t, u, v)
                assert compute_cut_sets(g, f) == reference_cut_sets(g, f)
            states += 1
            stalls += step is None
        assert states >= 300 and stalls >= 10

    @given(graph_with_sequence(min_n=2, max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_cut_sets_match_the_reference_at_every_tree_edge(self, case):
        g, seq = case
        t = realize_tree(seq)
        for u, v in t.edges:
            f = orient_forest(t, u, v)
            c = compute_cut_sets(g, f)
            assert c == reference_cut_sets(g, f)
            # build_witness refuses exactly the splits that have an exchange
            if reference_exchange(g, f) is None:
                build_witness(g, t, f)
            else:
                with pytest.raises(ValueError, match="an exchange is available; nothing to witness"):
                    build_witness(g, t, f)

    def test_loop_takes_the_reference_candidate(self):
        for g, seq, t, step in _exchange_states():
            f = orient_forest(t, *foreign_edges(g, t)[0])
            x = reference_exchange(g, f)
            if step is None:
                assert x is None
                w = find_spanning_tree(g, seq).witness
                assert build_witness(g, t, f) == w
            else:
                assert x == step.exchange

    def test_witness_counts_are_the_reference_set_sizes(self):
        # every missing-edge split of the sweep whose reference sets stall
        splits = 0
        for g, seq, t, _ in _exchange_states():
            for u, v in foreign_edges(g, t):
                f = orient_forest(t, u, v)
                c = reference_cut_sets(g, f)
                if c.hooks_u & c.bridges_u or c.hooks_v & c.bridges_v:
                    continue
                w = build_witness(g, t, f)
                assert (w.hooks_u, w.bridges_u, w.hooks_v, w.bridges_v,
                        w.u_nbrs_same, w.v_nbrs_same) == (
                    len(c.hooks_u), len(c.bridges_u), len(c.hooks_v), len(c.bridges_v),
                    c.u_nbrs_same, c.v_nbrs_same)
                splits += 1
        assert splits >= 300

    def test_solve_without_a_stall_builds_no_records(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a step record was built")

        monkeypatch.setattr(degspan.solver, "orient_forest", fail)
        monkeypatch.setattr(degspan.solver, "compute_cut_sets", fail)
        g = random_condition_graph(120, 3, seed=23)
        res = find_spanning_tree(g, random_degree_sequence(120, 3, random.Random(23)))
        assert res.ok and len(res.steps) == 26


def _walks(g, t, u, v):
    """``_exchange`` on both sides of tree edge (u, v), called as the loop calls it.

    The loop passes its list adjacency, which exchanges leave unsorted (here
    reversed), stamps on one side and parents in which each root is its own
    parent (the loop's kept parents hang the child end from the parent end,
    which the walk reads only when (u, v) is a graph edge).
    """
    adj = [a[::-1] for a in map(list, t.adjacency)]
    _, side_v, loop_parent = degspan.solver._split(adj, u, v)
    stamp = [0] * t.n
    for x in side_v:
        stamp[x] = 5
    walks = {
        side: degspan.solver._exchange(g, near, far, stamp, 5, loop_parent, adj)
        for side, near, far in (("u", u, v), ("v", v, u))
    }
    return orient_forest(t, u, v), walks


class TestExchangeWalk:
    """The first-hit walk against the reference rule, on each side of a split."""

    def _check(self, g, t, u, v):
        f, walks = _walks(g, t, u, v)
        for side in "uv":
            assert walks[side] == reference_exchange(g, f, side)
        assert (walks["u"] or walks["v"]) == reference_exchange(g, f)

    @given(graph_with_sequence(min_n=2, max_n=9))
    @settings(max_examples=150, deadline=None)
    def test_walk_matches_the_reference_at_every_tree_edge(self, case):
        g, seq = case
        t = realize_tree(seq)
        for u, v in t.edges:
            self._check(g, t, u, v)

    def test_walk_matches_the_reference_on_every_state(self):
        states = 0
        for g, _, t, _ in _exchange_states():
            for u, v in foreign_edges(g, t)[:3]:
                self._check(g, t, u, v)
            states += 1
        assert states >= 300


def _checked_exchange(monkeypatch):
    """Wrap ``_exchange`` to check what it is handed against a fresh ``_split``; returns its calls.

    The side and its parents, roots aside, must be those of a whole-tree
    search from both ends of the missing edge.
    """
    exchange, split = degspan.solver._exchange, degspan.solver._split
    calls = []

    def checked(g, near, far, label, tag, parent, adj):
        fresh_side, _, fresh_parent = split(adj, near, far)
        inside = label[near] == tag
        assert sorted(x for x, s in enumerate(label) if (s == tag) == inside) == sorted(fresh_side)
        assert all(parent[x] == fresh_parent[x] for x in fresh_side if x != near)
        calls.append(near)
        return exchange(g, near, far, label, tag, parent, adj)

    monkeypatch.setattr(degspan.solver, "_exchange", checked)
    return calls


class TestKeptOrientation:
    """The loop's kept orientation against a whole-tree search at every exchange."""

    @given(graph_with_sequence(min_n=2, max_n=12))
    @settings(max_examples=200, deadline=None)
    def test_loop_matches_the_reference_loop(self, case):
        g, seq = case
        assert find_spanning_tree(g, seq) == reference_find_spanning_tree(g, seq)

    def test_loop_matches_the_reference_loop_on_the_pinned_instances(self):
        from test_solver_pinned import _dense_instances, _instances

        stalls = 0
        for g, seq in itertools.chain(_instances(), _dense_instances()):
            res = find_spanning_tree(g, seq)
            assert res == reference_find_spanning_tree(g, seq)
            stalls += not res.ok
        assert stalls == 88 + 16

    def test_reference_loop_refuses_what_it_cannot_apply(self):
        path = LabelledTree.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        x = Exchange(side="u", drop_foreign=(1, 2), drop_tree=(2, 3), add_1=(0, 1), add_2=(3, 2))
        with pytest.raises(SolverInvariantError, match=r"adds \(0, 1\), already a tree edge$"):
            reference_rewire(path, x)
        with pytest.raises(ValueError, match=r"^the split at \(0, 1\) does not reach every vertex"):
            reference_split(LabelledTree.from_edges(3, [(0, 1)]), 0, 1)

    @given(graph_with_sequence(min_n=2, max_n=12))
    @settings(max_examples=150, deadline=None)
    def test_exchange_is_handed_a_fresh_split_on_random_instances(self, case):
        g, seq = case
        with pytest.MonkeyPatch.context() as mp:
            calls = _checked_exchange(mp)
            res = find_spanning_tree(g, seq)
        assert len(calls) >= len(res.steps)

    def test_exchange_is_handed_a_fresh_split_on_the_dense_instances(self, monkeypatch):
        from test_solver_pinned import _dense_instances

        calls = _checked_exchange(monkeypatch)
        exchanges = sum(len(find_spanning_tree(g, seq).steps) for g, seq in _dense_instances())
        assert exchanges == 1294 and len(calls) >= exchanges

    def test_found_solve_searches_the_whole_tree_once(self, monkeypatch):
        from test_solver_pinned import _dense_instances

        found = [(len(res.steps), searches)
                 for res, searches in _counted_splits(monkeypatch, _dense_instances()) if res.ok]
        assert len(found) == 44 and max(found)[0] >= 50 and min(found)[0] >= 1
        assert all(searches == 1 for _, searches in found)

    def test_stalled_solve_searches_the_whole_tree_once(self, monkeypatch):
        from test_solver_pinned import _dense_instances

        extremal = [build_extremal(k, r) for k, r in [(1, 3), (2, 3), (1, 4)]]
        stalled = [(len(res.steps), searches)
                   for res, searches in _counted_splits(monkeypatch,
                                                        [*_dense_instances(), *extremal])
                   if not res.ok]
        assert len(stalled) == 16 + 3 and min(stalled)[0] == 0 and max(stalled)[0] >= 1
        assert all(searches == 1 for _, searches in stalled)

    def test_solve_without_an_exchange_never_searches_the_whole_tree(self, monkeypatch):
        from test_solver_pinned import _instances

        searches = [searches for res, searches in _counted_splits(monkeypatch, _instances())
                    if res.ok and not res.steps]
        assert len(searches) == 70 and not any(searches)


def _counted_splits(monkeypatch, instances):
    """Each solve of ``instances`` with the number of ``_split`` calls it made."""
    split = degspan.solver._split
    calls = []
    monkeypatch.setattr(degspan.solver, "_split", lambda *args: calls.append(args) or split(*args))
    out = []
    for g, seq in instances:
        calls.clear()
        out.append((find_spanning_tree(g, seq), len(calls)))
    return out


class TestSolverHotPath:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n", [120, 480])
    def test_tree_edges_are_tested_with_no_python_call(self, n, seed):
        """A profile hook counts the Python calls of a found solve and its verification.

        Only the loop's two root-bridge guards and two added-edge checks per
        exchange call ``_row_has``; the start, the hook test, the foreign-edge
        scan and the tree check bisect each tree edge inline, and the tree
        check climbs its union-find inline.  What remains per vertex is the
        start's decode generator.
        """
        g = random_condition_graph(n, 3, seed)
        seq = random_degree_sequence(n, 3, random.Random(seed))
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            res = find_spanning_tree(g, seq)
            out = verify_tree(g, res.tree, seq)
        finally:
            sys.setprofile(None)
        exchanges = len(res.steps)
        assert out.ok and exchanges > 0
        assert calls["_row_has"] == 4 * exchanges
        assert calls["find"] == 0
        # per exchange: four _row_has, three normalized_edge (one at the start, per missing
        # edge), two record constructors, _rewire, and one or two each of _exchange and
        # _reroot: 12.6-12.9 here on Python 3.10-3.13; a call per tree edge adds n - 1
        assert calls.total() <= n + 13 * exchanges + 30


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


# every count an InfeasibilityWitness records, r included
WITNESS_COUNTS = (
    "size_u", "size_v", "hooks_u", "bridges_u", "hooks_v", "bridges_v",
    "u_nbrs_same", "v_nbrs_same", "degree_sum", "r",
)


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
        assert c.hooks_u & c.bridges_u
        with pytest.raises(ValueError):
            build_witness(g, t, f)

    @pytest.mark.parametrize("field, change", [
        *((field, delta) for field in WITNESS_COUNTS for delta in (1, -1)),
        ("contradicts_condition", None),
    ])
    def test_tampered_witness_fails_validation(self, field, change):
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        assert validate_witness(g, w)
        value = getattr(w, field)
        tampered = w._replace(**{field: not value if change is None else value + change})
        assert validate_witness(g, tampered) is False

    @pytest.mark.parametrize("r", [4, 5, 10])
    def test_witness_whose_r_exceeds_its_trees_largest_degree_fails_validation(self, r):
        # the chain rebuilt for the larger r still holds; r must be the tree's cap, here 3
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        counts = [(w.size_u, w.hooks_u, w.bridges_u, w.u_nbrs_same),
                  (w.size_v, w.hooks_v, w.bridges_v, w.v_nbrs_same)]
        chain = degspan.solver._witness_chain(r, counts, g.degree(w.u), g.degree(w.v))
        assert w.r == 3 and all(i.holds for i in chain)
        assert not validate_witness(g, w._replace(r=r, chain=chain))

    def test_witness_of_another_pair_or_graph_fails_validation(self):
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        swapped = w._replace(u=w.v, v=w.u)
        assert not validate_witness(g, swapped)
        # The same witness against a larger graph: K9 minus (0, 1).
        k9 = LabelledGraph.from_edges(
            9, (e for e in itertools.combinations(range(9), 2) if e != (0, 1))
        )
        assert not validate_witness(k9, w)
        # Counts taken on a connected graph with a cycle: (1, 2) crosses the "split".
        g4 = LabelledGraph.from_edges(4, [(0, 1), (1, 3), (2, 3)])
        cyclic = LabelledTree.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        f = orient_forest(cyclic, 0, 2)
        forged = build_witness(g4, cyclic, f)
        assert not validate_witness(g4, forged)

    @pytest.mark.parametrize("row, bad", [((1, 2, 3, 4, 99), 99), ((-1, 1, 2, 3, 4), -1)])
    def test_witness_tree_naming_a_vertex_out_of_range_fails_validation(self, row, bad):
        # n - 1 edges by count, so only the range check can reject the tree
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        tree = LabelledTree((row, (0,), (0,), (0,), (0,), (0,)))
        assert tree_defect(tree) == f"not a tree: vertex {bad} out of range for n=6"
        assert not validate_witness(g, w._replace(tree=tree))

    @pytest.mark.parametrize("pair", [{"u": -1}, {"v": 6}, {"v": 99}, {"u": 6, "v": 7}])
    def test_witness_pair_out_of_range_fails_validation(self, pair):
        # u = -1 must not read the last tree row, nor u = n raise IndexError
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        assert g.n == 6 and validate_witness(g, w)
        assert validate_witness(g, w._replace(**pair)) is False

    def test_witness_tree_with_a_moved_row_entry_fails_validation(self):
        # 1 moves from row 4 to row 2: still 2(n - 1) entries, and the
        # entries above each row's vertex are still the witness tree's edges
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        assert w.tree.adjacency == ((1, 2, 3), (0, 4, 5), (0,), (0,), (1,), (1,))
        tree = LabelledTree(((1, 2, 3), (0, 4, 5), (0, 1), (0,), (), (1,)))
        assert tree_defect(tree) == "not a tree: vertex 2 lists 1, but vertex 1 does not list 2"
        assert not validate_witness(g, w._replace(tree=tree))

    def test_witness_tree_with_an_extra_row_fails_validation(self):
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        for extra in ((), (0,)):
            tree = LabelledTree(w.tree.adjacency + (extra,))
            assert tree.n == g.n + 1
            assert not validate_witness(g, w._replace(tree=tree))

    @pytest.mark.parametrize("x, row", [
        # row 1 also lists 0, which compute_cut_sets would report as a root bridge
        (1, (0, 2, 3, 4, 5)),
        # row 2 drops 0 while row 0 still lists 2, so u's counts take an edge row 2 denies
        (2, (1, 3, 4, 5)),
    ])
    def test_graph_rows_that_do_not_mirror_fail_validation(self, x, row):
        g, seq = build_extremal(1, 3)
        w = find_spanning_tree(g, seq).witness
        assert (w.u, w.v) == (0, 1) and validate_witness(g, w)
        rows = list(g.adjacency)
        rows[x] = row
        assert validate_witness(LabelledGraph(tuple(rows)), w) is False

    @settings(deadline=None)
    @given(st.data())
    def test_one_edited_row_never_makes_validation_raise(self, data):
        g, seq = build_extremal(*data.draw(st.sampled_from([(1, 3), (2, 3), (1, 4)])))
        w = find_spanning_tree(g, seq).witness
        in_tree = data.draw(st.booleans())
        rows = list((w.tree if in_tree else g).adjacency)
        x = data.draw(st.integers(0, g.n - 1))
        row = rows[x]
        edit = data.draw(st.sampled_from(["drop", "append", "reorder"]))
        if edit == "drop":
            i = data.draw(st.integers(0, len(row) - 1))
            rows[x] = row[:i] + row[i + 1:]
        elif edit == "append":  # in range, or out of it on either side
            rows[x] = (*row, data.draw(st.integers(-g.n, 2 * g.n)))
        else:
            rows[x] = tuple(data.draw(st.permutations(row)))
        if in_tree:
            result = validate_witness(g, w._replace(tree=LabelledTree(tuple(rows))))
        else:
            result = validate_witness(LabelledGraph(tuple(rows)), w)
        assert type(result) is bool

    def test_witness_of_another_split_fails_validation(self):
        g, seq = build_extremal(2, 3)
        w = find_spanning_tree(g, seq).witness
        assert validate_witness(g, w)
        assert (w.u, w.v) == (1, 2) and not w.tree.are_adjacent(0, 2)
        # (0, 2) is no tree edge, so the tree has no split there
        assert not validate_witness(g, w._replace(u=0, v=2))
        # (1, 2) is then a graph edge, not a missing one
        assert not validate_witness(LabelledGraph.from_edges(10, (*g.edges, (1, 2))), w)
        # with (0, 2) in the graph the split at (1, 2) has an exchange
        g02 = LabelledGraph.from_edges(10, (*g.edges, (0, 2)))
        assert reference_exchange(g02, orient_forest(w.tree, 1, 2)) is not None
        assert not validate_witness(g02, w)

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
    def test_tree_order_mismatch(self):
        star = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        out = verify_tree(complete_graph(5), star, validate_degree_sequence([3, 1, 1, 1]))
        assert not out
        assert out.reason == "order mismatch: tree 4, graph 5"

    def test_sequence_order_mismatch(self):
        star = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        out = verify_tree(complete_graph(4), star, validate_degree_sequence([2, 2, 2, 1, 1]))
        assert not out
        assert out.reason == "order mismatch: sequence 5, graph 4"

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

    def test_graph_rows_that_do_not_mirror_cannot_vouch_for_an_edge(self):
        g = LabelledGraph(((1, 2, 3), (0, 2), (1,), ()))
        star = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        out = verify_tree(g, star, validate_degree_sequence([3, 1, 1, 1]))
        assert not out
        assert out.reason == "edge (0, 2) not in graph"

    def test_degree_mismatch_names_vertex(self):
        g = complete_graph(4)
        t = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        seq = validate_degree_sequence([1, 3, 1, 1])
        out = verify_tree(g, t, seq)
        assert not out
        assert "vertex 0" in out.reason

    def test_degrees_held_as_a_list_verify_and_name_the_first_mismatch(self):
        g = complete_graph(4)
        t = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert verify_tree(g, t, DegreeSequence([3, 1, 1, 1]))
        out = verify_tree(g, t, DegreeSequence([1, 1, 3, 1]))
        assert out.reason == "degree mismatch at vertex 0: 3 != 1"

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

    def test_reasons_name_the_first_failure_in_edge_order(self):
        seq5 = validate_degree_sequence([2, 2, 2, 1, 1])
        t = LabelledTree.from_edges(5, [(3, 4), (1, 3), (0, 1), (2, 0)])
        assert verify_tree(path_graph(5), t, seq5).reason == "edge (0, 2) not in graph"
        t = LabelledTree.from_edges(5, [(3, 4), (1, 2), (0, 2), (0, 1)])
        assert verify_tree(complete_graph(5), t, seq5).reason == (
            "not a tree: cycle through edge (1, 2)"
        )
        t = LabelledTree.from_edges(4, [(2, 3), (0, 1)])
        assert verify_tree(complete_graph(4), t, validate_degree_sequence([2, 2, 1, 1])).reason == (
            "edge count 2 != n - 1 = 3"
        )

    @pytest.mark.parametrize("rows", [
        ((1,), (0, 2), (1,), ()),  # the extra row empty
        ((1,), (0, 2), (1, 3), (2,)),  # an edge into the extra row
        ((1,), (0, 2), (1,), (4,), (3,)),  # two extra rows holding an edge
        ((1,), (0,)),  # one row fewer
    ])
    def test_row_count_is_the_tree_order(self, rows):
        t = LabelledTree(rows)
        assert t.n == len(rows)
        out = verify_tree(path_graph(3), t, validate_degree_sequence([1, 2, 1]))
        assert out.reason == f"order mismatch: tree {len(rows)}, graph 3"

    def test_rows_that_do_not_mirror_each_other_are_rejected(self):
        # the entries above each row's vertex are the path's edges, but
        # vertex 2 lists 0 and vertex 0 does not list 2
        t = LabelledTree(((1,), (2,), (0, 1, 3), (2,)))
        assert t.edges == ((0, 1), (1, 2), (2, 3))
        assert t.are_adjacent(2, 0) and not t.are_adjacent(0, 2)
        out = verify_tree(path_graph(4), t, validate_degree_sequence([1, 1, 3, 1]))
        assert out.reason == "not a tree: vertex 2 lists 0, but vertex 0 does not list 2"

    @pytest.mark.parametrize("rows, reason", [
        # 5 entries // 2 is n - 1 edges, and (0, 1), (1, 2) span the path
        (((1,), (0, 2), (0, 1)), "not a tree: the rows hold 5 entries, an odd number"),
        (((2, 1), (0,), (0,)), "not a tree: row of vertex 0 is not strictly ascending at 1"),
        (((1, 2), (0, 0), ()), "not a tree: row of vertex 1 is not strictly ascending at 0"),
        (((0, 1), (0, 2), (1,), (3,)), "not a tree: cycle through edge (0, 0)"),
    ])
    def test_rows_that_are_no_simple_graph_are_rejected(self, rows, reason):
        assert tree_defect(LabelledTree(rows)) == reason

    @given(claimed_tree_rows())
    @settings(max_examples=500, deadline=None)
    def test_tree_defect_agrees_with_a_search_reference(self, rows):
        assert (tree_defect(LabelledTree(rows)) is None) == reference_is_tree(rows)

    def test_tree_defect_agrees_with_a_search_reference_on_every_graph_of_n_minus_1_edges(self):
        # all 3,237 up to n = 6; a union-find that loses a link lets some cycle through
        for n in range(2, 7):
            pairs = itertools.combinations(range(n), 2)
            rows = [LabelledGraph.from_edges(n, edges).adjacency
                    for edges in itertools.combinations(pairs, n - 1)]
            assert sum(map(reference_is_tree, rows)) == n ** (n - 2)  # Cayley's formula
            for r in rows:
                assert (tree_defect(LabelledTree(r)) is None) == reference_is_tree(r)


class TestForeignEdges:
    def test_tree_edge_past_the_graph_order_raises_index_error(self):
        with pytest.raises(IndexError):
            foreign_edges(path_graph(3), LabelledTree.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        # a vertex past the order with no tree edge is never looked up
        t = LabelledTree.from_edges(4, [(0, 1), (0, 2)])
        assert foreign_edges(path_graph(3), t) == ((0, 2),)

    def test_an_edge_counts_only_when_both_rows_list_it(self):
        # rows 2 and 3 do not list 0, so the star's edges (0, 2) and (0, 3) are missing
        g = LabelledGraph(((1, 2, 3), (0, 2), (1,), ()))
        star = LabelledTree.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert foreign_edges(g, star) == ((0, 2), (0, 3))

    @given(graphs(min_n=2, max_n=9), graphs(min_n=2, max_n=11))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_are_adjacent_scan(self, g, h):
        # t holds any simple graph, as a claimed tree may, on an order up to two past g's
        t = LabelledTree(h.adjacency)

        def scan():
            return tuple((u, v) for u, nbrs in enumerate(t.adjacency) for v in nbrs
                         if u < v and not g.are_adjacent(u, v))

        try:
            expected = scan()
        except IndexError:
            with pytest.raises(IndexError):
                foreign_edges(g, t)
        else:
            assert foreign_edges(g, t) == expected

    @given(graphs_with_one_sided_entry(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_a_both_rows_reference_on_rows_that_do_not_mirror(self, g, data):
        t = LabelledTree(data.draw(graphs(min_n=g.n, max_n=g.n)).adjacency)
        listed = {(u, v) for u, row in enumerate(g.adjacency) for v in row}
        expected = tuple(e for e in t.edges if e not in listed or e[::-1] not in listed)
        assert foreign_edges(g, t) == expected


class TestTreeContainer:
    def test_is_a_graph_with_the_same_stored_form(self):
        assert issubclass(LabelledTree, LabelledGraph)
        assert LabelledGraph._fields == LabelledTree._fields == ("adjacency",)
        t = LabelledTree.from_edges(4, [(2, 0), (0, 1), (3, 1)])
        assert t.adjacency == ((1, 2), (0, 3), (0,), (1,))
        assert t.edges == ((0, 1), (0, 2), (1, 3))
        assert t.degree_vector() == (2, 2, 1, 1)
        assert t.are_adjacent(3, 1) and not t.are_adjacent(2, 3)

    def test_records_are_read_only(self):
        g, seq = cycle_graph(5), validate_degree_sequence([2, 2, 2, 1, 1])
        found = find_spanning_tree(g, seq)
        records = (g, found.tree, seq, found.steps[0].exchange,
                   find_spanning_tree(*build_extremal(1, 3)).witness, found)
        assert tuple(map(type, records)) == (
            LabelledGraph, LabelledTree, DegreeSequence, Exchange, InfeasibilityWitness, SolveResult,
        )
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        assert not hasattr(found.tree, "__dict__")
        with pytest.raises(AttributeError):
            found.tree.extra = None

    def test_from_edges_rejects_repeated_edges_and_no_vertices(self):
        for pairs in ([(0, 1), (1, 0)], [(0, 1), (0, 1)]):
            with pytest.raises(ValueError):
                LabelledTree.from_edges(3, pairs)
        with pytest.raises(ValueError):
            LabelledTree.from_edges(0, [])
        with pytest.raises(ValueError):
            LabelledTree.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            LabelledTree.from_edges(3, [(1, 1)])

    def test_solver_trees_match_validated_construction(self):
        # The solver builds its trees without from_edges; rebuilding every
        # one through it must give the same value on the pinned instances.
        from test_solver_pinned import _instances

        def same_as_validated(t):
            # tuple equality holds between a tree and a graph, so check the type too
            return type(t) is LabelledTree and t == LabelledTree.from_edges(t.n, t.edges)

        for g, seq in _instances():
            res = find_spanning_tree(g, seq)
            final = res.tree if res.ok else res.witness.tree
            assert same_as_validated(final)
            t = realize_tree(seq)
            for step in res.steps:
                t = apply_exchange(t, step.exchange)
                assert same_as_validated(t)
            if res.ok:
                assert t == final



RECORDS = (
    LabelledGraph, LabelledTree, DegreeSequence, ConditionReport, RootedForest, Exchange,
    ExchangeStep, CutAnalysis, Inequality, InfeasibilityWitness, SolveResult, VerifyResult,
    degspan.cli.Report, degspan.cli.BatchSummary,
)


class TestRecordDeclarations:
    def test_annotations_are_evaluated(self):
        # String annotations would make NamedTuple compile a ForwardRef per field.
        assert InfeasibilityWitness.__annotations__["u"] is int
        for record in RECORDS:
            if record is not LabelledTree:  # declares no fields of its own
                assert tuple(record.__annotations__) == record._fields
            for name, annotation in record.__annotations__.items():
                assert not isinstance(annotation, (str, ForwardRef)), (record.__name__, name)

    def test_exchange_json_rebuilds_the_exchange(self):
        g = random_condition_graph(20, 3, seed=1)
        seq = random_degree_sequence(20, 3, random.Random(1))
        steps = find_spanning_tree(g, seq).steps
        assert steps
        for step in steps:
            x = step.exchange
            assert Exchange(**x.to_json_dict()) == x
