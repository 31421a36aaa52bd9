"""Only ``forward.py``, where ``StepOperators`` and its route subclasses live, knows
how a solver route works.  Every other module asks a ``StepOperators`` for what it
needs (``decay``, ``trajectory``, ``to_basis``, ...): it reads no route's private
``_diagonals`` and compares no ``.solver`` with a route's name.  Only
``make_step_operators`` builds a route, and ``grid.py``, whose ``Trajectory`` keeps
the route a modal run marched on, imports neither the routes nor the solvers.  Only
``manufactured.py`` spells out the benchmark ids and the source modes; every other
module reads ``EXAMPLE_IDS`` and ``SOURCES``."""

import ast
from pathlib import Path

from fracheat.manufactured import EXAMPLE_IDS, SOURCES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracheat"


def _is_string(node):
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_string(element) for element in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _route_leaks(source):
    """(line, what) for each read of ``._diagonals`` and each comparison of an
    attribute ``.solver`` with a string, or with a tuple, list or set holding one."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_diagonals":
            yield node.lineno, "reads ._diagonals"
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(o, ast.Attribute) and o.attr == "solver" for o in operands) and any(
                _is_string(o) for o in operands
            ):
                yield node.lineno, "compares .solver with a string"


def test_the_checker_sees_both_leaks():
    source = (
        "g = ops._diagonals[2]\n"
        "if states is None and ops.solver == 'modal': pass\n"
        "if ops.solver in ('cg', 'modal'): pass\n"
        "if solver == 'modal' or ops.solver is None or ops.solver in SOLVERS: pass\n"
    )
    assert sorted(_route_leaks(source)) == [
        (1, "reads ._diagonals"),
        (2, "compares .solver with a string"),
        (3, "compares .solver with a string"),
    ]


def test_no_module_but_forward_knows_the_route():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {"forward.py", "inverse.py", "studies.py"} <= {path.name for path in modules}
    leaks = [
        f"{path.name}:{line}: {what}"
        for path in modules
        if path.name != "forward.py"
        for line, what in sorted(_route_leaks(path.read_text()))
    ]
    assert not leaks, "route knowledge outside StepOperators:\n" + "\n".join(leaks)


ROUTE_CLASSES = {"_CholeskyStepOperators", "_CgStepOperators", "_ModalStepOperators"}


def _route_builds(source):
    """(line, class) for each call of a route class outside ``make_step_operators``,
    by its bare name or as an attribute."""
    tree = ast.parse(source)
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "make_step_operators"
        for inner in ast.walk(node)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ROUTE_CLASSES:
                yield node.lineno, name


def test_the_checker_sees_a_route_built_elsewhere():
    source = (
        "def make_step_operators(grid, op):\n"
        "    return _ModalStepOperators(grid, op)\n"
        "def stability_bounds(trajectory, op, grid):\n"
        "    ops = StepOperators(grid, op) if dec is None else _ModalStepOperators(grid, op)\n"
        "    return fracheat.forward._CgStepOperators(grid, op, 1e-12, None)\n"
    )
    assert sorted(_route_builds(source)) == [
        (4, "_ModalStepOperators"),
        (5, "_CgStepOperators"),
    ]


def test_only_make_step_operators_builds_a_route():
    builds = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in sorted(_route_builds(path.read_text()))
    ]
    assert not builds, "a route built outside make_step_operators:\n" + "\n".join(builds)


def _imports(source):
    """(line, module) for each module an import statement names, relative imports
    resolved against the package: ``from .solvers import x`` and ``from . import
    solvers`` both name ``fracheat.solvers``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("fracheat" if node.level else "", node.module)))
            if node.module is None:
                for alias in node.names:
                    yield node.lineno, f"{base}.{alias.name}"
            else:
                yield node.lineno, base


def _grid_leaks(source):
    for line, module in _imports(source):
        if module.split(".")[:2] in (["fracheat", "solvers"], ["fracheat", "forward"]):
            yield line, module


def test_the_checker_sees_grid_import_a_route():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .solvers import SpectralDecomposition\n"
        "from . import forward, riesz\n"
        "import fracheat.solvers as solvers\n"
        "from fracheat.forward import StepOperators\n"
    )
    assert sorted(_grid_leaks(source)) == [
        (3, "fracheat.solvers"),
        (4, "fracheat.forward"),
        (5, "fracheat.solvers"),
        (6, "fracheat.forward"),
    ]


def test_grid_imports_neither_solvers_nor_forward():
    leaks = sorted(_grid_leaks((PACKAGE / "grid.py").read_text()))
    assert not leaks, f"grid.py imports {leaks}"


def _spelled_out(source, names):
    """(line, name) for each element of a tuple, list or set display, and each key or
    value of a dict display, that is one of the string constants ``names``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            elements = node.elts
        elif isinstance(node, ast.Dict):
            elements = [key for key in node.keys if key is not None] + node.values
        else:
            continue
        for element in elements:
            if isinstance(element, ast.Constant) and isinstance(element.value, str) and (
                element.value in names
            ):
                yield element.lineno, element.value


def test_the_checker_sees_ids_and_sources_spelled_out():
    source = (
        '_EXAMPLES = {"1": "example1", "2": "example2"}\n'
        '_FLAGS = {"--source": ("source", dict(choices=("discrete", "quadrature")))}\n'
        'if self.example not in ["example1", other]: pass\n'
        'modes = {"quadrature": 1, **extra}, {"discrete"}\n'
        'example = "example1"\n'
        'build_manufactured("example2", grid, source="quadrature")\n'
        'names = tuple(ident for ident in EXAMPLE_IDS), ("example3", "midpoint")\n'
    )
    assert sorted(_spelled_out(source, ("example1", "example2", "discrete", "quadrature"))) == [
        (1, "example1"), (1, "example2"),
        (2, "discrete"), (2, "quadrature"),
        (3, "example1"),
        (4, "discrete"), (4, "quadrature"),
    ]


def test_only_manufactured_spells_out_the_ids_and_sources():
    names = (*EXAMPLE_IDS, *SOURCES)
    assert {"example1", "example2", "discrete", "quadrature"} <= set(names)
    leaks = [
        f"{path.name}:{line}: {name!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "manufactured.py"
        for line, name in sorted(_spelled_out(path.read_text(), names))
    ]
    assert not leaks, "ids or sources spelled out outside manufactured.py:\n" + "\n".join(leaks)
