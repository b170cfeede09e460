"""The benchmark tracer (``bench/tracing.py``) wraps degspan functions by name.

It swaps timing wrappers into module and class attributes, so renaming or
removing one of those attributes breaks the benchmark without breaking any
other test.  This test loads the tracer and reads every attribute it wraps.
"""

import importlib.util
from pathlib import Path

import degspan.solver
from degspan.tree import LabelledTree

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_attribute_the_tracer_wraps_exists():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bound = tracing.bindings()  # AttributeError or KeyError at a missing name
    for name in ("orient_forest", "compute_cut_sets", "apply_exchange", "realize_tree",
                 "build_witness", "validate_witness"):
        assert getattr(degspan.solver, name) in bound
    assert LabelledTree.__dict__["from_edges"] in bound
