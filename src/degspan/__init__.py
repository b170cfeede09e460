"""Spanning trees with an exact prescribed degree sequence.

Given a graph on labelled vertices and one target degree per vertex (a
positive sequence summing to 2(n-1)), the solver maintains a tree with
exactly those degrees and exchanges edges until the tree fits inside the
graph.  Whenever every pair of non-adjacent vertices has degree sum at
least ((2r-3)n - (2r-5)) / (r-1), with r the largest target degree, the
search provably succeeds; otherwise it either still finds a tree or
reports the counting state that blocked it.  An exhaustive enumeration
oracle and generators for boundary example families support verification.
"""

from .condition import ConditionReport, check_condition, degree_sum_threshold
from .extremal import build_extremal, extremal_order, extremal_worst_sum
from .graph import (
    Edge,
    GraphParseError,
    LabelledGraph,
    min_nonadjacent_degree_sum,
    parse_graph,
    random_condition_graph,
    serialize_graph,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleBudgetError,
    count_trees,
    oracle_count,
    oracle_find,
)
from .sequences import (
    DegreeSequence,
    SequenceError,
    canonical_word,
    parse_sequence_literal,
    random_degree_sequence,
    realize_tree,
    validate_degree_sequence,
)
from .solver import (
    Exchange,
    ExchangeStep,
    InfeasibilityWitness,
    Inequality,
    SolveResult,
    SolverInvariantError,
    VerifyResult,
    find_spanning_tree,
    validate_witness,
    verify_tree,
)
from .tree import LabelledTree

__version__ = "0.1.0"

__all__ = [
    "ConditionReport",
    "DEFAULT_BUDGET",
    "DegreeSequence",
    "Edge",
    "Exchange",
    "ExchangeStep",
    "GraphParseError",
    "InfeasibilityWitness",
    "Inequality",
    "LabelledGraph",
    "LabelledTree",
    "OracleBudgetError",
    "SequenceError",
    "SolveResult",
    "SolverInvariantError",
    "VerifyResult",
    "build_extremal",
    "canonical_word",
    "check_condition",
    "count_trees",
    "degree_sum_threshold",
    "extremal_order",
    "extremal_worst_sum",
    "find_spanning_tree",
    "min_nonadjacent_degree_sum",
    "oracle_count",
    "oracle_find",
    "parse_graph",
    "parse_sequence_literal",
    "random_condition_graph",
    "random_degree_sequence",
    "realize_tree",
    "serialize_graph",
    "validate_degree_sequence",
    "validate_witness",
    "verify_tree",
]
