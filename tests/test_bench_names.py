"""The benchmark's layer tracer wraps kernel functions by name; every name
it lists must exist, or `bench/run.py --trace 1` fails."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_functions_exist():
    tree = ast.parse(TRACING.read_text())
    (timed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TIMED" for t in node.targets)
    ]
    missing = [
        f"cayleyauto.{mod}.{fn}"
        for mod, fns in timed.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"cayleyauto.{mod}"), fn, None))
    ]
    assert timed and not missing
