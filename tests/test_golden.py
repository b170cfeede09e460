"""Golden CLI outputs: stdout byte for byte and the exit code of every case.

Each case runs in both ``--format text`` and ``--format json``.  Stderr
embeds file paths, so for input errors only its ``error:`` prefix is
checked; every other case must leave stderr empty.

The files under ``tests/golden/`` pin the CLI's behaviour, so a refactor
must pass them unchanged.  Re-record them (``python tests/test_golden.py``
with degspan importable) only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

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
    "solve-order-mismatch": ["solve", "--graph", HOST, "--seq", "2,1,1"],
    "solve-missing-file": ["solve", "--graph", "{inputs}/missing.txt", "--seq", "1,1"],
    "check-satisfied": ["check", "--graph", HOST, "--r", "3"],
    "check-unsatisfied": ["check", "--graph", STALL, "--r", "3"],
    "check-r1": ["check", "--graph", HOST, "--r", "1"],
    "realize-valid": ["realize", "--seq", "3,2,2,1,1,1"],
    "realize-invalid": ["realize", "--seq", "3,3,1,1"],
    "oracle-find-found": ["oracle-find", "--graph", HOST, "--seq", HOST_SEQ],
    "oracle-find-none": ["oracle-find", "--graph", STALL, "--seq", STALL_SEQ],
    "oracle-count-positive": ["oracle-count", "--graph", HOST, "--seq", HOST_SEQ],
    "oracle-count-zero": ["oracle-count", "--graph", STALL, "--seq", STALL_SEQ],
    "oracle-count-over-budget": [
        "oracle-count", "--graph", HOST, "--seq", HOST_SEQ, "--budget", "100",
    ],
    "extremal-plain": ["extremal", "--k", "1"],
    "extremal-verify": ["extremal", "--k", "2", "--r", "3", "--verify"],
    "extremal-verify-over-budget": [
        "extremal", "--k", "3", "--r", "3", "--verify", "--budget", "10",
    ],
    "extremal-k0": ["extremal", "--k", "0"],
    "batch-seeded": [
        "batch", "--n-min", "8", "--n-max", "12", "--r", "3", "--count", "5", "--seed", "1",
    ],
    "batch-empty-range": ["batch", "--n-min", "9", "--n-max", "8", "--count", "3"],
    "batch-count-0": ["batch", "--n-min", "8", "--n-max", "9", "--count", "0"],
}


def run(name: str, fmt: str) -> tuple[int, str, str]:
    argv = [arg.format(inputs=INPUTS) for arg in CASES[name]] + ["--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}.out"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, fmt):
    code, out, err = run(name, fmt)
    assert out.encode("utf-8") == golden_path(name, fmt).read_bytes()
    assert code == json.loads(CODES_FILE.read_text())[f"{name}.{fmt}"]
    if code == 2:
        assert err.startswith("error:")
    else:
        assert err == ""


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
