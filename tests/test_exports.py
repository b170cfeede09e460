"""The package's exports and imports: each listed name is defined once, the step layer
is unlisted, and every module imports only the modules before it in one order."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


# Each module may import only the modules before it, so the imports have no cycle;
# the package's __init__ imports them all and comes last.
LAYERS = (
    "graph", "tree", "sequences", "condition", "extremal", "solver", "oracle", "cli", "__init__",
)


def test_each_module_imports_only_earlier_layers():
    paths = sorted(Path(degspan.__file__).parent.glob("*.py"))
    assert sorted(p.stem for p in paths) == sorted(LAYERS)
    upward = []
    for path in paths:
        layer = LAYERS.index(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [(path.stem, node.lineno, t) for t in targets
                           if LAYERS.index(t) >= layer]
    assert upward == []
