"""The package's exports: each listed name is defined once, and the step layer is unlisted."""

import importlib
import pkgutil

import degspan
import degspan.solver

STEP_LAYER = {"orient_forest", "CutAnalysis", "compute_cut_sets", "apply_exchange"}


def test_every_listed_name_is_defined_once_and_star_imports_work():
    modules = [degspan] + [
        importlib.import_module(f"degspan.{m.name}") for m in pkgutil.iter_modules(degspan.__path__)
    ]
    assert {m.__name__ for m in modules} >= {"degspan.cli", "degspan.solver", "degspan.tree"}
    for module in modules:
        names = module.__all__
        assert len(names) == len(set(names)), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], module.__name__
    for module in ("degspan", "degspan.solver"):
        namespace: dict = {}
        exec(f"from {module} import *", namespace)
        assert set(importlib.import_module(module).__all__) <= namespace.keys()
    # the step layer stays defined for the benchmark tracer, but is not exported
    assert not STEP_LAYER & set(degspan.solver.__all__)
    assert all(hasattr(degspan.solver, name) for name in STEP_LAYER)
    assert not hasattr(degspan, "prufer_decode")
    assert not hasattr(degspan.sequences, "prufer_decode")
    assert not hasattr(degspan.DegreeSequence, "max_degree")
