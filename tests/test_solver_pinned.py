"""Pinned solver behaviour: exchange sequences, trees and witnesses for fixed seeds.

``PINNED_DIGEST`` covers the full ``SolveResult`` of 400 seeded instances:
half on ``random_condition_graph`` hosts (inside the guarantee), half on
random graphs with n <= 14 that ignore the bound, where many instances stall
and their witnesses are pinned too.  A change to the solver that alters any
exchange, final tree or witness changes the digest.  The digest was recorded
before the exchange loop was made incremental and must not be edited to
make a change pass.

``DENSE_PINNED_DIGEST`` covers 60 seeded instances with n = 60-200, the
orders the benchmark's sweep runs at, where each solve takes tens to a
hundred exchanges.  Two in three hosts are G(n, p) repaired up to the r
bound; the rest are sparse G(n, p) hosts off the bound, so stalls after
several exchanges are pinned too.  Every other sequence is random, the rest
put degree r on the host's lowest-degree vertices.  It was recorded before
the exchange step was rewritten around one BFS and set algebra, and must not
be edited to make a change pass either.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from degspan import (
    LabelledGraph,
    SolveResult,
    find_spanning_tree,
    random_condition_graph,
    random_degree_sequence,
)
from support import dense_host, low_degree_sequence

PINNED_DIGEST = "e9da4ce474f4e933d78b341a34a700b9964d7d1e7e1ce11521b8bbbcd2bb609d"
DENSE_PINNED_DIGEST = "dffa36c3b468a8b33cc0eca3906bcbe00d464ff5f37ee3b9b49f001cd892f064"


def _result_json(res: SolveResult) -> dict:
    return {
        "steps": [s.to_json_dict() for s in res.steps],
        "tree": None if res.tree is None else [list(e) for e in res.tree.edges],
        "witness": None if res.witness is None else res.witness.to_json_dict(),
    }


def _instances():
    for i in range(200):
        rng = random.Random(i)
        n = rng.randint(6, 24)
        r = rng.choice((3, 4))
        yield random_condition_graph(n, r, seed=i), random_degree_sequence(n, r, rng)
    for i in range(200):
        rng = random.Random(10_000 + i)
        n = rng.randint(4, 14)
        p = rng.uniform(0.3, 0.9)
        pairs = itertools.combinations(range(n), 2)
        g = LabelledGraph.from_edges(n, (e for e in pairs if rng.random() < p))
        yield g, random_degree_sequence(n, rng.choice((2, 3, 4)), rng)


def test_solver_results_match_pinned_digest():
    results = [find_spanning_tree(g, seq) for g, seq in _instances()]
    stalls = sum(not res.ok for res in results)
    exchanges = sum(len(res.steps) for res in results)
    assert (stalls, exchanges) == (88, 570)
    blob = json.dumps([_result_json(res) for res in results], sort_keys=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == PINNED_DIGEST


def _dense_instances():
    for i in range(60):
        rng = random.Random(20_000 + i)
        n = rng.randint(60, 200)
        r = rng.choice((3, 4))
        on_bound = i % 3 != 2
        p = rng.uniform(0.5, 0.8) if on_bound else rng.uniform(0.05, 0.3)
        g = dense_host(n, r, p, rng, repair=on_bound)
        if i % 2 == 0:
            yield g, random_degree_sequence(n, r, rng)
        else:
            yield g, low_degree_sequence(g, r, rng)


def test_dense_solver_results_match_pinned_digest():
    results = [find_spanning_tree(g, seq) for g, seq in _dense_instances()]
    stalls = sum(not res.ok for res in results)
    exchanges = sum(len(res.steps) for res in results)
    assert (stalls, exchanges) == (16, 1294)
    blob = json.dumps([_result_json(res) for res in results], sort_keys=True)
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == DENSE_PINNED_DIGEST
