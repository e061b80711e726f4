"""Source hygiene: every name a module of the package imports is used,
every import sits at module level, so the module graph reads off the top of
each file, no module but schedules evaluates a schedule on a grid, no
module takes an arctan2 (spectral.chart reads cos and sin off (eta_i,
eta_f) instead), no module but operators names an eigensolver or a
matrix exponential, no Kronecker product sits on the run path, every
name a module binds at its top level is read somewhere in src/ or tests/,
and every top-level function and class is read by the package itself:
called in src/ or exported by __init__."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sagt"
TESTS = Path(__file__).resolve().parent
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


def kron_references(source):
    return name_references(source, {"kron"})


def test_the_scan_sees_kron():
    source = (
        "import numpy as np\n"
        "from numpy import kron as k\n"
        "x = np.kron(a, b)\n"
        "y = reduce(np.kron, factors)\n"
        "z = np.multiply.outer(a, b)\n"
    )
    assert kron_references(source) == [2, 3, 4]


@pytest.mark.parametrize("name", ["evolution.py", "model.py"])
def test_the_run_path_takes_no_kron(name):
    # register states and parity signs are np.multiply.outer products: the
    # products np.kron forms, in its order, without its per-call reshaping
    assert kron_references((SRC / name).read_text(encoding="utf-8")) == []


def top_level_bindings(source):
    """(line, name) of the functions, classes and assigned names a module
    binds at its top level; dunders such as __all__ are read by Python."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            bound += [(node.lineno, name) for name in names]
    return [(line, name) for line, name in bound if not name.startswith("__")]


def names_read(source):
    """Every name `source` reads: a bare name it loads, an attribute, or a
    name it imports from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_scan_sees_a_name_nobody_reads():
    source = (
        "import numpy as np\n"
        "_G0, _G1 = np.eye(2)\n"
        "LIMIT: int = 3\n"
        "__all__ = []\n"
        "def reads_g1():\n    return _G1\n"
        "def _unused():\n    return LIMIT\n"
        "class Dead:\n    pass\n"
    )
    read = names_read(source)
    assert [b for b in top_level_bindings(source) if b[1] not in read] == [
        (2, "_G0"),
        (5, "reads_g1"),
        (7, "_unused"),
        (9, "Dead"),
    ]
    assert "reads_g1" in names_read("from sagt.evolution import reads_g1\n")
    assert "reads_g1" in names_read("evolution.reads_g1()\n")


def test_every_top_level_name_is_read():
    # a constant, helper or class that nothing reads any more is dead code:
    # a leftover of a change that moved its last reader elsewhere
    read = set()
    for path in [*ALL_MODULES, *sorted(TESTS.glob("*.py"))]:
        read |= names_read(path.read_text(encoding="utf-8"))
    unread = [
        f"{path.name}:{line} {name}"
        for path in ALL_MODULES
        for line, name in top_level_bindings(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert unread == []


def unreached_definitions(sources):
    """(file, line, name) of each top-level function and class of the
    {file name: source} `sources` that none of them reads: no call, name or
    import of it (an import by __init__ is an export) anywhere in them."""
    read = set().union(*(names_read(source) for source in sources.values()))
    return [
        (file, node.lineno, node.name)
        for file, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in read
    ]


def test_the_scan_sees_a_definition_only_the_tests_reach():
    sources = {
        "__init__.py": "from .a import Exported\n",
        "a.py": (
            "def used():\n    return 1\n\n\n"
            "def tested_only():\n    return used()\n\n\n"
            "class Exported:\n    pass\n\n\n"
            "class Internal:\n    pass\n"
        ),
    }
    assert unreached_definitions(sources) == [("a.py", 5, "tested_only"), ("a.py", 13, "Internal")]


def test_every_function_and_class_is_reached_from_the_package():
    # a function or class that only the tests read is test code kept in
    # src/: it belongs beside its callers
    sources = {path.name: path.read_text(encoding="utf-8") for path in ALL_MODULES}
    assert unreached_definitions(sources) == []
