"""Source hygiene: every name a module of the package imports is used, and
every import sits at module level, so the module graph reads off the top of
each file."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sagt"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by import statements anywhere in `source` and never
    read; `np.linalg` reads np, so attribute chains count through their
    root name."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom math import pi, tau\nimport numpy as np\nx = np.pi * tau\n"
    assert unused_imports(source) == [(1, "os"), (2, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_level_imports(source):
    """Line numbers of the import statements inside function bodies."""
    tree = ast.parse(source)
    functions = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return sorted(
        {
            node.lineno
            for function in functions
            for node in ast.walk(function)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_the_scan_sees_a_function_level_import():
    source = (
        "import os\n\n\ndef f():\n    def g():\n        from math import pi\n"
        "        return pi\n    import sys\n    return g, sys, os\n"
    )
    assert function_level_imports(source) == [6, 8]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_level_imports(path):
    assert function_level_imports(path.read_text(encoding="utf-8")) == []
