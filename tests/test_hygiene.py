"""Source hygiene: every name a module of the package imports is used,
every import sits at module level, so the module graph reads off the top of
each file, no module but schedules evaluates a schedule on a grid, no
module takes an arctan2 (spectral.chart reads cos and sin off (eta_i,
eta_f) instead), and no module but operators names an eigensolver or a
matrix exponential."""

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


def name_references(source, names):
    """Line numbers that name one of `names`: a bare name, an attribute or
    an imported alias."""
    tree = ast.parse(source)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name in names for alias in node.names):
                lines.add(node.lineno)
    return sorted(lines)


def grid_eval_references(source):
    return name_references(source, {"grid_eval"})


def test_the_scan_sees_grid_eval():
    source = (
        "from .schedules import grid_eval as g\n"
        "from . import schedules\n"
        "x = schedules.grid_eval(f, s)\n"
        "y = grid_eval\n"
        "z = sample(schedule, s)\n"
    )
    assert grid_eval_references(source) == [1, 3, 4]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "schedules.py"], ids=lambda p: p.name
)
def test_schedules_are_evaluated_only_through_their_sample(path):
    # schedules.sample is the one evaluation of a schedule on a grid;
    # every other module reads the schedule through it
    assert grid_eval_references(path.read_text(encoding="utf-8")) == []


def arctan2_references(source):
    return name_references(source, {"arctan2", "atan2"})


def test_the_scan_sees_arctan2():
    source = (
        "import math\n"
        "from numpy import arctan2 as angle\n"
        "x = np.arctan2(ef, ei)\n"
        "y = math.atan2(1.0, 2.0)\n"
        "z = np.arctan(ef / ei)\n"
    )
    assert arctan2_references(source) == [2, 3, 4]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_the_chart_has_one_home(path):
    # spectral.chart reads cos theta and sin theta off a sample; the frame
    # and every other module take those, never the angle theta itself
    assert arctan2_references(path.read_text(encoding="utf-8")) == []


EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals", "expm"}


def eigensolver_references(source):
    return name_references(source, EIGENSOLVERS)


def test_the_scan_sees_an_eigensolver():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import expm as exp_m\n"
        "w, v = np.linalg.eigh(h)\n"
        "x = eigvalsh(h)\n"
        "y = la.eig(h)\n"
        "z = np.linalg.eigvals(h)\n"
        "f = block_eigenvectors(schedule, s)\n"
        "g = np.linalg.eigh\n"
    )
    assert eigensolver_references(source) == [2, 3, 4, 5, 6, 8]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "operators.py"], ids=lambda p: p.name
)
def test_eigensolvers_stay_in_operators(path):
    # the sector has closed forms for its frame and its step propagators;
    # only the generic helpers in operators diagonalize
    assert eigensolver_references(path.read_text(encoding="utf-8")) == []
