"""Checks over the package source.

- No `dataclasses`: importing it pulls in `inspect`, `ast`, `dis` and
  `tokenize`, and each decorated class execs generated methods, in every
  cold CLI process.
- No nested function that names itself: its closure cell refers back to
  the function, so each call of the enclosing function leaves a reference
  cycle that keeps everything the closure holds alive until the next full
  garbage collection.
"""

import ast
import pathlib

import cayleyauto

SOURCES = sorted(pathlib.Path(cayleyauto.__file__).parent.rglob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(), str(path))


def test_sources_are_found():
    assert {"cli.py", "fa.py", "fo.py", "relations.py"} <= {p.name for p in SOURCES}


def test_no_dataclasses():
    bad = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                bad.append(f"{name}:{node.lineno}")
    assert not bad


def test_no_nested_function_names_itself():
    bad = []
    for name, tree in _trees():
        for outer in ast.walk(tree):
            if not isinstance(outer, FUNCTIONS):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, FUNCTIONS):
                    continue
                if any(isinstance(n, ast.Name) and n.id == inner.name
                       for stmt in inner.body for n in ast.walk(stmt)):
                    bad.append(f"{name}:{inner.lineno} {inner.name}")
    assert not bad
