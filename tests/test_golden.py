"""Golden CLI outputs: stdout byte for byte and the exit code of every case.

Each case runs in both ``--format text`` and ``--format json``, and
through two entry points: ``main`` in process, and a fresh
``python -m degspan.cli`` that imports the same degspan and passes on
``-O`` when the tests run under ``python -O -m pytest``.  Both must pass
the same checks.  Stderr embeds file paths, so for input errors only its
``error:`` prefix is checked; every other case must leave stderr empty.

The files under ``tests/golden/`` pin the CLI's behaviour, so a refactor
must pass them unchanged.  Re-record them (``python tests/test_golden.py``
with degspan importable) only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degspan
from degspan.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
CODES_FILE = GOLDEN / "exit_codes.json"
FORMATS = ("text", "json")

HOST = "{inputs}/host9.txt"  # meets the r = 3 bound; solving takes 3 exchanges
STALL = "{inputs}/k6-minus-edge.txt"  # smallest extremal member, k = 1, r = 3
HOST_SEQ = "2,2,1,2,1,2,2,1,3"
STALL_SEQ = "3,3,1,1,1,1"

CASES: dict[str, list[str]] = {
    "solve-found": ["solve", "--graph", HOST, "--seq", HOST_SEQ],
    "solve-stalled": ["solve", "--graph", STALL, "--seq", STALL_SEQ],
    "solve-seq-file": ["solve", "--graph", HOST, "--seq", "@{inputs}/host9.seq"],
    # random_condition_graph(120, 3, seed=23) in serialize_graph's layout, with
    # random_degree_sequence(120, 3, Random(23)): 26 exchanges on both sides
    "solve-found-dense": [
        "solve", "--graph", "{inputs}/host120.txt", "--seq", "@{inputs}/host120.seq",
    ],
    "solve-order-mismatch": ["solve", "--graph", HOST, "--seq", "2,1,1"],
    "solve-missing-file": ["solve", "--graph", "{inputs}/missing.txt", "--seq", "1,1"],
    "check-satisfied": ["check", "--graph", HOST, "--r", "3"],
    "check-unsatisfied": ["check", "--graph", STALL, "--r", "3"],
    "check-r1": ["check", "--graph", HOST, "--r", "1"],
    "check-underscore-endpoint": ["check", "--graph", "{inputs}/underscore.txt", "--r", "3"],
    "check-oversized-count": ["check", "--graph", "{inputs}/oversized-count.txt", "--r", "3"],
    # host9 with CRLF ends, comments and zero-padded endpoints: the same graph
    "check-padded-crlf": ["check", "--graph", "{inputs}/host9-padded-crlf.txt", "--r", "3"],
    "check-nbsp-endpoint": ["check", "--graph", "{inputs}/nbsp-endpoint.txt", "--r", "3"],
    "realize-valid": ["realize", "--seq", "3,2,2,1,1,1"],
    "realize-invalid": ["realize", "--seq", "3,3,1,1"],
    "realize-empty-entry": ["realize", "--seq", "2,,1,1"],
    "realize-underscore-entry": ["realize", "--seq", "1_1,1,1,1,1,1,1,1,1,1,1,1"],
    # one 5,000-digit entry: past int()'s default 4,300-digit limit, rejected by length
    "realize-oversized-entry": ["realize", "--seq", "@{inputs}/oversized-entry.seq"],
    "oracle-find-found": ["oracle-find", "--graph", HOST, "--seq", HOST_SEQ],
    "oracle-find-none": ["oracle-find", "--graph", STALL, "--seq", STALL_SEQ],
    "oracle-count-positive": ["oracle-count", "--graph", HOST, "--seq", HOST_SEQ],
    "oracle-count-zero": ["oracle-count", "--graph", STALL, "--seq", STALL_SEQ],
    "oracle-count-over-budget": [
        "oracle-count", "--graph", HOST, "--seq", HOST_SEQ, "--budget", "100",
    ],
    # a negative budget is a usage error, not a request that is over every budget
    "oracle-count-negative-budget": [
        "oracle-count", "--graph", HOST, "--seq", HOST_SEQ, "--budget", "-1",
    ],
    "extremal-plain": ["extremal", "--k", "1"],
    "extremal-verify": ["extremal", "--k", "2", "--r", "3", "--verify"],
    "extremal-verify-over-budget": [
        "extremal", "--k", "3", "--r", "3", "--verify", "--budget", "10",
    ],
    "extremal-verify-negative-budget": [
        "extremal", "--k", "1", "--r", "3", "--verify", "--budget", "-1",
    ],
    "extremal-k0": ["extremal", "--k", "0"],
    "extremal-oversized": ["extremal", "--k", "500"],  # order 2002 > MAX_GENERATED_N
    "batch-seeded": [
        "batch", "--n-min", "8", "--n-max", "12", "--r", "3", "--count", "5", "--seed", "1",
    ],
    "batch-empty-range": ["batch", "--n-min", "9", "--n-max", "8", "--count", "3"],
    "batch-count-0": ["batch", "--n-min", "8", "--n-max", "9", "--count", "0"],
    "batch-negative-count": ["batch", "--n-min", "8", "--n-max", "9", "--count", "-3"],
    "batch-r1": ["batch", "--n-min", "8", "--n-max", "9", "--r", "1", "--count", "0"],
    "batch-oversized": ["batch", "--n-min", "2001", "--n-max", "2001", "--count", "1"],
}


def argv(name: str, fmt: str) -> list[str]:
    return [arg.format(inputs=INPUTS) for arg in CASES[name]] + ["--format", fmt]


def run(name: str, fmt: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv(name, fmt))
    return code, out.getvalue(), err.getvalue()


def run_module(name: str, fmt: str) -> tuple[int, str, str]:
    """The case as ``python -m degspan.cli``, with this run's ``-O`` level and degspan."""
    optimize = ["-" + "O" * sys.flags.optimize] if sys.flags.optimize else []
    env = {**os.environ, "PYTHONPATH": str(Path(degspan.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, *optimize, "-m", "degspan.cli", *argv(name, fmt)],
        capture_output=True, env=env, check=False,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}.out"


@pytest.mark.parametrize("entry", [run, run_module], ids=["main", "module"])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, fmt, entry):
    code, out, err = entry(name, fmt)
    assert out.encode("utf-8") == golden_path(name, fmt).read_bytes()
    assert code == json.loads(CODES_FILE.read_text())[f"{name}.{fmt}"]
    if code == 2:
        assert err.startswith("error:")
    else:
        assert err == ""


@pytest.mark.parametrize("fmt", FORMATS)
def test_padded_crlf_host_reads_as_host(fmt):
    padded = golden_path("check-padded-crlf", fmt).read_bytes()
    assert padded == golden_path("check-satisfied", fmt).read_bytes()


def test_nbsp_endpoint_names_its_line():
    code, out, err = run("check-nbsp-endpoint", "text")
    assert (code, out) == (2, "")
    assert err.endswith("line 4: endpoint not in digits 0-9 in '0\\xa01'\n")


def test_oversized_entry_names_its_position():
    code, out, err = run("realize-oversized-entry", "text")
    assert (code, out) == (2, "")
    assert err == "error: entry at position 0 exceeds the limit 1000000\n"


def record() -> None:
    codes = {}
    for name in sorted(CASES):
        for fmt in FORMATS:
            code, out, _ = run(name, fmt)
            golden_path(name, fmt).write_bytes(out.encode("utf-8"))
            codes[f"{name}.{fmt}"] = code
    CODES_FILE.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
