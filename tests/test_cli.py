import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import degspan.cli
import degspan.oracle
import degspan.solver
from degspan import (
    LabelledTree,
    SolveResult,
    VerifyResult,
    parse_graph,
    serialize_graph,
    validate_degree_sequence,
    verify_tree,
)
from degspan.cli import BatchSummary, main, run_batch
from support import complete_graph, cycle_graph

EDGE = {
    "type": "array",
    "items": {"type": "integer"},
    "minItems": 2,
    "maxItems": 2,
}
EDGE_LIST = {"type": "array", "items": EDGE}
EXCHANGE = {
    "type": "object",
    "properties": {
        "side": {"enum": ["u", "v"]},
        "drop_foreign": EDGE,
        "drop_tree": EDGE,
        "add_1": EDGE,
        "add_2": EDGE,
        "phi_after": {"type": "integer", "minimum": 0},
    },
    "required": ["side", "drop_foreign", "drop_tree", "add_1", "add_2", "phi_after"],
    "additionalProperties": False,
}
SOLVE_FOUND = {
    "type": "object",
    "properties": {
        "status": {"const": "found"},
        "n": {"type": "integer"},
        "edges": EDGE_LIST,
        "exchanges": {"type": "array", "items": EXCHANGE},
    },
    "required": ["status", "n", "edges", "exchanges"],
    "additionalProperties": False,
}
INEQUALITY = {
    "type": "object",
    "properties": {
        "label": {"type": "string"},
        "lhs": {"type": "integer"},
        "op": {"enum": ["<=", "=="]},
        "rhs": {"type": "integer"},
        "holds": {"type": "boolean"},
    },
    "required": ["label", "lhs", "op", "rhs", "holds"],
    "additionalProperties": False,
}
WITNESS = {
    "type": "object",
    "properties": {
        "pair": EDGE,
        "r": {"type": "integer"},
        "size_u": {"type": "integer"},
        "size_v": {"type": "integer"},
        "counts": {
            "type": "object",
            "additionalProperties": {"type": "integer"},
        },
        "degree_sum": {"type": "integer"},
        "contradicts_condition": {"type": "boolean"},
        "inequalities": {"type": "array", "items": INEQUALITY},
        "tree": {
            "type": "object",
            "properties": {"n": {"type": "integer"}, "edges": EDGE_LIST},
            "required": ["n", "edges"],
        },
    },
    "required": [
        "pair",
        "r",
        "size_u",
        "size_v",
        "counts",
        "degree_sum",
        "contradicts_condition",
        "inequalities",
        "tree",
    ],
    "additionalProperties": False,
}
SOLVE_STALLED = {
    "type": "object",
    "properties": {"status": {"const": "stalled"}, "witness": WITNESS},
    "required": ["status", "witness"],
    "additionalProperties": False,
}
CHECK_REPORT = {
    "type": "object",
    "properties": {
        "n": {"type": "integer"},
        "r": {"type": "integer"},
        "threshold": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
        "satisfied": {"type": "boolean"},
        "worst_pair": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "properties": {
                        "u": {"type": "integer"},
                        "v": {"type": "integer"},
                        "sum": {"type": "integer"},
                    },
                    "required": ["u", "v", "sum"],
                    "additionalProperties": False,
                },
            ]
        },
    },
    "required": ["n", "r", "threshold", "satisfied", "worst_pair"],
    "additionalProperties": False,
}
BATCH_SUMMARY = {
    "type": "object",
    "properties": {
        "instances": {"type": "integer"},
        "solved": {"type": "integer"},
        "verified": {"type": "integer"},
        "max_exchanges": {"type": "integer"},
        "failures": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["instances", "solved", "verified", "max_exchanges", "failures"],
    "additionalProperties": False,
}


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(serialize_graph(complete_graph(4)))
    return str(path)


@pytest.fixture
def g1_file(tmp_path):
    # complete graph on six vertices minus the (0, 1) edge
    path = tmp_path / "g1.txt"
    lines = ["6"] + [
        f"{u} {v}" for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# every integer option, each in a command that is valid once the option is
# added; a bad spelling stops the parse before any file is read
INTEGER_OPTIONS = [
    (["check", "--graph", "g.txt"], "--r"),
    (["oracle-find", "--graph", "g.txt", "--seq", "1,1"], "--budget"),
    (["oracle-count", "--graph", "g.txt", "--seq", "1,1"], "--budget"),
    (["extremal"], "--k"),
    (["extremal", "--k", "1"], "--r"),
    (["extremal", "--k", "1"], "--budget"),
    (["batch", "--n-max", "6", "--count", "1"], "--n-min"),
    (["batch", "--n-min", "5", "--count", "1"], "--n-max"),
    (["batch", "--n-min", "5", "--n-max", "6", "--count", "1"], "--r"),
    (["batch", "--n-min", "5", "--n-max", "6"], "--count"),
    (["batch", "--n-min", "5", "--n-max", "6", "--count", "1"], "--seed"),
]

_INT = degspan.cli._int
_BUDGET = ("--budget", False, degspan.oracle.DEFAULT_BUDGET, _INT, None)
_FORMAT = ("--format", False, "text", None, ("text", "json"))
_GRAPH = ("--graph", True, None, None, None)
_SEQ = ("--seq", True, None, None, None)
PARSER_OPTIONS = {
    # subcommand: (handler, {dest: (flag, required, default, type, choices)})
    "solve": ("_cmd_solve", {"graph": _GRAPH, "seq": _SEQ, "format": _FORMAT}),
    "check": ("_cmd_check", {
        "graph": _GRAPH, "r": ("--r", True, None, _INT, None), "format": _FORMAT,
    }),
    "realize": ("_cmd_realize", {"seq": _SEQ, "format": _FORMAT}),
    "oracle-find": ("_cmd_oracle_find", {
        "graph": _GRAPH, "seq": _SEQ, "budget": _BUDGET, "format": _FORMAT,
    }),
    "oracle-count": ("_cmd_oracle_count", {
        "graph": _GRAPH, "seq": _SEQ, "budget": _BUDGET, "format": _FORMAT,
    }),
    "extremal": ("_cmd_extremal", {
        "k": ("--k", True, None, _INT, None),
        "r": ("--r", False, 3, _INT, None),
        "verify": ("--verify", False, False, None, None),
        "budget": _BUDGET,
        "format": _FORMAT,
    }),
    "batch": ("_cmd_batch", {
        "n_min": ("--n-min", True, None, _INT, None),
        "n_max": ("--n-max", True, None, _INT, None),
        "r": ("--r", False, 3, _INT, None),
        "count": ("--count", True, None, _INT, None),
        "seed": ("--seed", False, 0, _INT, None),
        "verbose": ("--verbose", False, False, None, None),
        "format": _FORMAT,
    }),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_found_text(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "solve", "--graph", k4_file, "--seq", "2,2,1,1")
        assert code == 0
        tree = parse_graph(out)
        assert tree.n == 4
        assert len(tree.edges) == 3

    def test_found_json(self, capsys, k4_file):
        code, out, _ = run_cli(
            capsys, "solve", "--graph", k4_file, "--seq", "2,2,1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, SOLVE_FOUND)
        assert payload["status"] == "found"

    def test_stalled_json(self, capsys, g1_file):
        code, out, _ = run_cli(
            capsys, "solve", "--graph", g1_file, "--seq", "3,3,1,1,1,1", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, SOLVE_STALLED)
        assert payload["witness"]["pair"] == [0, 1]
        assert all(item["holds"] for item in payload["witness"]["inequalities"])

    def test_stalled_text_same_exit_code(self, capsys, g1_file):
        code, out, _ = run_cli(capsys, "solve", "--graph", g1_file, "--seq", "3,3,1,1,1,1")
        assert code == 1
        assert "stalled" in out

    def test_sequence_graph_mismatch_is_usage_error(self, capsys, k4_file):
        code, _, err = run_cli(capsys, "solve", "--graph", k4_file, "--seq", "2,1,1")
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--graph", "/nope.txt", "--seq", "1,1")
        assert code == 2

    @pytest.mark.parametrize("module, attr, fake", [
        (degspan.solver, "_rewire", lambda adj, x: adj[x.add_1[0]].append(x.add_1[1])),
        (degspan.cli, "verify_tree", lambda g, t, seq: VerifyResult(False, "forced")),
    ])
    def test_broken_invariant_exits_3(self, capsys, tmp_path, monkeypatch, module, attr, fake):
        path = tmp_path / "c5.txt"
        path.write_text(serialize_graph(cycle_graph(5)))
        monkeypatch.setattr(module, attr, fake)
        code, out, err = run_cli(capsys, "solve", "--graph", str(path), "--seq", "2,2,2,1,1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: solver invariant:")

    def test_stall_with_an_invalid_witness_exits_3(self, capsys, g1_file, monkeypatch):
        # the real stall exits 1; a witness that claims to contradict the bound is a solver bug
        solve = degspan.cli.find_spanning_tree

        def forged(g, seq):
            result = solve(g, seq)
            w = result.witness
            return result._replace(witness=w._replace(contradicts_condition=True))

        monkeypatch.setattr(degspan.cli, "find_spanning_tree", forged)
        code, out, err = run_cli(capsys, "solve", "--graph", g1_file, "--seq", "3,3,1,1,1,1")
        assert (code, out) == (3, "")
        assert err == (
            "error: solver invariant: solver emitted a witness that fails validate_witness\n"
        )

    def test_seq_from_file(self, capsys, k4_file, tmp_path):
        seq_path = tmp_path / "seq.txt"
        seq_path.write_text("2,2,1,1\n")
        code, out, _ = run_cli(capsys, "solve", "--graph", k4_file, "--seq", f"@{seq_path}")
        assert code == 0


class TestCheck:
    def test_unsatisfied_json(self, capsys, g1_file):
        code, out, _ = run_cli(
            capsys, "check", "--graph", g1_file, "--r", "3", "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, CHECK_REPORT)
        assert payload["threshold"] == "17/2"
        assert payload["worst_pair"]["sum"] == 8

    def test_satisfied_complete(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "check", "--graph", k4_file, "--r", "3")
        assert code == 0
        assert "satisfied" in out

    def test_verdict_independent_of_format(self, capsys, g1_file):
        text_code, _, _ = run_cli(capsys, "check", "--graph", g1_file, "--r", "3")
        json_code, _, _ = run_cli(
            capsys, "check", "--graph", g1_file, "--r", "3", "--format", "json"
        )
        assert text_code == json_code == 1

    def test_bad_r_is_usage_error(self, capsys, k4_file):
        code, _, _ = run_cli(capsys, "check", "--graph", k4_file, "--r", "1")
        assert code == 2

    @pytest.mark.parametrize("count", ["1000001", "9" * 5000])
    def test_oversized_count_names_its_line(self, capsys, tmp_path, count):
        path = tmp_path / "big.txt"
        path.write_text(f"# header\n{count}\n0 1\n")
        code, out, err = run_cli(capsys, "check", "--graph", str(path), "--r", "3")
        assert code == 2
        assert out == ""
        assert err == "error: line 2: vertex count exceeds the limit 1000000\n"


class TestRealize:
    def test_star(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "--seq", "3,1,1,1")
        assert code == 0
        assert parse_graph(out).edges == ((0, 1), (0, 2), (0, 3))

    def test_invalid_sequence(self, capsys):
        code, _, err = run_cli(capsys, "realize", "--seq", "3,3,1,1")
        assert code == 2


class TestOracleCommands:
    def test_find_none_on_boundary_family(self, capsys, g1_file):
        code, out, _ = run_cli(
            capsys,
            "oracle-find", "--graph", g1_file, "--seq", "3,3,1,1,1,1", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload == {"total_candidates": 6, "first_tree": None}

    def test_find_on_complete(self, capsys, k4_file):
        code, out, _ = run_cli(
            capsys, "oracle-find", "--graph", k4_file, "--seq", "2,2,1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_candidates"] == 2
        g = complete_graph(4)
        seq = validate_degree_sequence([2, 2, 1, 1])
        edges = [tuple(e) for e in payload["first_tree"]["edges"]]
        assert verify_tree(g, LabelledTree.from_edges(4, edges), seq)

    def test_count_json(self, capsys, g1_file):
        code, out, _ = run_cli(
            capsys,
            "oracle-count", "--graph", g1_file, "--seq", "3,3,1,1,1,1", "--format", "json",
        )
        assert code == 1
        assert json.loads(out) == {"total_candidates": 6, "contained_count": 0}

    def test_count_positive_exit_zero(self, capsys, k4_file):
        code, out, _ = run_cli(
            capsys, "oracle-count", "--graph", k4_file, "--seq", "2,2,1,1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"total_candidates": 2, "contained_count": 2}

    def test_budget_exceeded(self, capsys, tmp_path):
        path = tmp_path / "k30.txt"
        path.write_text(serialize_graph(complete_graph(30)))
        seq = ",".join(["2"] * 28 + ["1", "1"])
        code, _, err = run_cli(
            capsys,
            "oracle-count", "--graph", str(path), "--seq", seq, "--budget", "1000",
        )
        assert code == 2
        assert "infeasible" in err

    def test_oversized_request_exits_2_before_counting(self, capsys, tmp_path, monkeypatch):
        # the exact count, (n-2)! at n = 1600, has 4,427 digits: too long to print
        path = tmp_path / "edgeless.txt"
        path.write_text("1600\n")
        seq = ",".join(["2"] * 1598 + ["1", "1"])

        def no_exact_count(seq):
            raise AssertionError("the exact count was computed")

        monkeypatch.setattr(degspan.oracle, "count_trees", no_exact_count)
        monkeypatch.setattr(degspan.cli, "count_trees", no_exact_count)
        for command in ("oracle-count", "oracle-find"):
            code, out, err = run_cli(capsys, command, "--graph", str(path), "--seq", seq)
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and "budget of 10000000" in err


class TestExtremal:
    def test_text_output_reparses(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--k", "1")
        assert code == 0
        g = parse_graph(out)
        assert g.n == 6
        assert not g.are_adjacent(0, 1)
        assert "# sequence: 3,3,1,1,1,1" in out

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "extremal", "--k", "2", "--r", "3", "--verify", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        v = payload["verification"]
        assert v["ok"] is True
        assert v["condition_satisfied"] is False
        assert v["worst_sum"] == 14
        assert v["oracle_count"] == 0
        assert v["gap"] == "1/2"

    def test_verify_skips_oracle_over_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "extremal", "--k", "3", "--r", "3", "--verify", "--budget", "10",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["verification"]["oracle_count"] is None

    def test_bad_params(self, capsys):
        code, _, _ = run_cli(capsys, "extremal", "--k", "0")
        assert code == 2


class TestBatch:
    def test_small_ensemble(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "batch", "--n-min", "8", "--n-max", "14", "--r", "3", "--count", "10",
            "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, BATCH_SUMMARY)
        assert payload["solved"] == 10
        assert payload["verified"] == 10
        assert payload["failures"] == []

    def test_empty_ensemble(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "batch", "--n-min", "8", "--n-max", "9", "--count", "0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["instances"] == 0

    def test_negative_count_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "batch", "--n-min", "8", "--n-max", "9", "--count", "-3"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_verbose_reports_each_instance_on_stderr(self, capsys):
        argv = ("batch", "--n-min", "8", "--n-max", "12", "--r", "3", "--count", "5", "--seed", "1")
        code, quiet_out, quiet_err = run_cli(capsys, *argv)
        verbose_code, out, err = run_cli(capsys, *argv, "--verbose")
        assert code == verbose_code == 0
        assert quiet_err == ""
        assert out == quiet_out
        lines = err.splitlines()
        assert len(lines) == 5
        for i, line in enumerate(lines):
            assert re.fullmatch(rf"instance {i}: n=\d+ exchanges=\d+ ok=True", line)

    @pytest.mark.parametrize("attr, fake, solved, reason", [
        ("find_spanning_tree", lambda g, seq: SolveResult(None, None, ()), 0, "stalled"),
        ("verify_tree", lambda g, t, seq: VerifyResult(False, "forged reason"), 2, "forged reason"),
    ])
    def test_failures_are_listed_and_exit_1(self, capsys, monkeypatch, attr, fake, solved, reason):
        monkeypatch.setattr(degspan.cli, attr, fake)
        argv = ("batch", "--n-min", "8", "--n-max", "8", "--r", "3", "--count", "2")
        failures = [f"instance {i} (n=8, r=3): {reason}" for i in range(2)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        head, *listed = out.splitlines()
        assert re.fullmatch(
            rf"instances: 2 solved: {solved} verified: 0 max_exchanges: \d+ failures: 2", head
        )
        assert listed == [f"  {line}" for line in failures]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        payload = json.loads(out)
        jsonschema.validate(payload, BATCH_SUMMARY)
        assert (payload["solved"], payload["verified"]) == (solved, 0)
        assert payload["failures"] == failures

    def test_bad_order_floor_exits_2_before_any_instance(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(degspan.cli, "find_spanning_tree", lambda g, seq: calls.append(g))
        code, out, err = run_cli(capsys, "batch", "--n-min", "2", "--n-max", "10", "--count", "50")
        assert (code, out, calls) == (2, "", [])
        assert err == "error: need n-min >= 4 for r = 3, got 2\n"

    def test_r_below_2_exits_2_even_with_no_instances(self, capsys):
        code, out, err = run_cli(
            capsys, "batch", "--n-min", "8", "--n-max", "9", "--r", "1", "--count", "0"
        )
        assert (code, out, err) == (2, "", "error: need r >= 2, got 1\n")
        code, _, err = run_cli(
            capsys, "batch", "--n-min", "4", "--n-max", "9", "--r", "4", "--count", "0"
        )
        assert (code, err) == (2, "error: need n-min >= 5 for r = 4, got 4\n")

    def test_run_batch_deterministic(self):
        a = run_batch(8, 12, 3, 5, base_seed=3)
        b = run_batch(8, 12, 3, 5, base_seed=3)
        assert a == b

    @pytest.mark.parametrize("args, name", [
        ((4, 6, 3, None), "count = None"),
        ((4, 6, 3, "3"), "count = '3'"),
        ((4, 6, 3, 2.5), "count = 2.5"),
        ((4.5, 6, 3, 2), "n_min = 4.5"),
        ((4, 6.5, 3, 2), "n_max = 6.5"),
        ((5, 6, 3.5, 2), "r = 3.5"),
        ((4, 6, 3, 2, 1.5), "base_seed = 1.5"),
    ])
    def test_run_batch_refuses_non_integral_arguments(self, args, name):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} is not an integer$"):
            run_batch(*args)

    def test_run_batch_reads_integral_arguments_as_ints(self):
        assert run_batch(8.0, 12.0, 3.0, 2.0, base_seed=3.0) == run_batch(8, 12, 3, 2, base_seed=3)
        assert type(run_batch(4, 6, 3, 2.0).instances) is int

    def test_summary_json_rebuilds_the_summary(self):
        s = run_batch(8, 12, 3, 5, base_seed=3)
        assert s.instances == 5
        assert BatchSummary(**s.to_json_dict()) == s


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_flag(self, capsys, k4_file):
        assert run_cli(capsys, "check", "--graph", k4_file, "--r", "3", "--wat")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_integer_spellings_that_files_refuse_exit_2(self, capsys, k4_file):
        # each of these ran before, reading 0_1 as 1, ３ and ５ as 3 and 5, " 1_0_0" as 100
        for argv in (
            ["extremal", "--k", "0_1", "--r", "３"],
            ["batch", "--n-min", "５", "--n-max", "6", "--count", "0_2", "--r", "3"],
            ["oracle-count", "--graph", k4_file, "--seq", "3,1,1,1", "--budget", " 1_0_0"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "invalid int value" in err

    @pytest.mark.parametrize("command, option", INTEGER_OPTIONS)
    @pytest.mark.parametrize("spelling", [
        "0_1", "３", " 1_0_0", "+1", "1.0", pytest.param("9" * 5000, id="5000-digits"),
    ])
    def test_every_integer_option_takes_ascii_digits_only(self, capsys, command, option, spelling):
        code, out, err = run_cli(capsys, *command, option, spelling)
        assert (code, out) == (2, "")
        assert f"argument {option}: invalid int value: {spelling!r}" in err

    def test_negative_seed_still_runs(self, capsys):
        code, out, err = run_cli(
            capsys, "batch", "--n-min", "5", "--n-max", "6", "--count", "1", "--seed", "-5"
        )
        assert (code, err) == (0, "")
        assert out.startswith("instances: 1 solved: 1 verified: 1")

    def test_every_subcommand_declares_its_options_as_tabled(self):
        parser = degspan.cli._build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(PARSER_OPTIONS)
        for command, sp in sub.choices.items():
            handler, options = PARSER_OPTIONS[command]
            assert sp.get_default("func") is getattr(degspan.cli, handler), command
            declared = {
                a.dest: (*a.option_strings, a.required, a.default, a.type, a.choices)
                for a in sp._actions if not isinstance(a, argparse._HelpAction)
            }
            assert declared == options, command

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run_cli(capsys, "realize", "--seq", "3,1,1,1")[0] == 0
        after_first = len(built)
        for argv in (["realize", "--seq", "2,2,1,1"], ["frobnicate"], ["--help"]):
            run_cli(capsys, *argv)
        assert len(built) == after_first

    def test_import_loads_no_dataclasses_or_inspect(self):
        # The records are NamedTuples, so importing the CLI pulls in neither
        # dataclasses nor the modules it imports (inspect, ast, dis, ...).
        # -S keeps site hooks from importing anything of their own.
        package_root = str(Path(degspan.cli.__file__).parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import degspan.cli; "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", code, package_root],
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"
