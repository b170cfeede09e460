import json

import jsonschema
import pytest

import degspan.cli
import degspan.solver
from degspan import (
    LabelledTree,
    VerifyResult,
    parse_graph,
    serialize_graph,
    validate_degree_sequence,
    verify_tree,
)
from degspan.cli import main, run_batch
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
        (degspan.solver, "apply_exchange",
         lambda t, x: LabelledTree.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
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

    def test_run_batch_deterministic(self):
        a = run_batch(8, 12, 3, 5, base_seed=3)
        b = run_batch(8, 12, 3, 5, base_seed=3)
        assert a == b


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run_cli(capsys, )[0] == 2

    def test_unknown_flag(self, capsys, k4_file):
        assert run_cli(capsys, "check", "--graph", k4_file, "--r", "3", "--wat")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
