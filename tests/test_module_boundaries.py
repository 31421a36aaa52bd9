"""Only ``forward.py``, where ``StepOperators`` and its route subclasses live, knows
how a solver route works.  Every other module asks a ``StepOperators`` for what it
needs (``decay``, ``trajectory``, ``to_basis``, ...): it reads no route's private
``_diagonals`` and compares no ``.solver`` with a route's name.  Only
``make_step_operators`` builds a route, and ``grid.py``, whose ``Trajectory`` keeps
the route a modal run marched on, imports neither the routes nor the solvers.  Only
``manufactured.py`` names a benchmark id or a source mode, and only ``riesz.py`` a
scheme, in any string constant outside a docstring: every other module reads
``EXAMPLE_IDS``, ``SOURCES`` and ``SCHEMES``, and takes its default from their first
entries.  Each run default is one statement in the module that owns the choice, and
every signature that offers it reads that statement."""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

from fracheat.forward import make_step_operators
from fracheat.inverse import COMPATIBILITY_TOL, run_inverse, run_inverse_batch
from fracheat.manufactured import EXAMPLE_IDS, SOURCES, build_manufactured
from fracheat.riesz import SCHEMES, assemble
from fracheat.solvers import CG_TOL, cg_solve
from fracheat.studies import StudyConfig, run_inverse_case

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


def _docstrings(tree):
    """The ids of the string constants that are docstrings: each first statement of a
    module, class or function body that is a string alone."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _spelled_out(source, names):
    """(line, name) for each string constant outside a docstring that is one of
    ``names``: in a display, a default, a call, a comparison or an assignment alike."""
    tree = ast.parse(source)
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and node.value in names and id(node) not in docstrings):
            yield node.lineno, node.value


def test_the_checker_sees_ids_and_sources_spelled_out():
    source = (
        '_EXAMPLES = {"1": "example1", "2": "example2"}\n'
        '_FLAGS = {"--source": ("source", dict(choices=("discrete", "quadrature")))}\n'
        'if self.example not in ["example1", other]: pass\n'
        'modes = {"quadrature": 1, **extra}, {"discrete"}\n'
        'example = "example1"\n'
        'build_manufactured("example2", grid, source="quadrature")\n'
        'names = tuple(ident for ident in EXAMPLE_IDS), ("example3", "midpoint")\n'
        'def run(example: str = "example1", scheme="midpoint"):\n'
        '    "example2"\n'
        '    return example == "discrete" or f"{example}example1"\n'
        'class Config:\n'
        '    "discrete"\n'
        '    source: str = "discrete"\n'
        '    "quadrature"\n'
    )
    assert sorted(_spelled_out(source, ("example1", "example2", "discrete", "quadrature"))) == [
        (1, "example1"), (1, "example2"),
        (2, "discrete"), (2, "quadrature"),
        (3, "example1"),
        (4, "discrete"), (4, "quadrature"),
        (5, "example1"),
        (6, "example2"), (6, "quadrature"),
        (8, "example1"),
        (10, "discrete"), (10, "example1"),
        (13, "discrete"),
        (14, "quadrature"),
    ]
    assert sorted(_spelled_out(source, ("midpoint", "interpolated"))) == [(7, "midpoint"),
                                                                         (8, "midpoint")]


def _leaks(owner, names):
    return [
        f"{path.name}:{line}: {name!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != owner
        for line, name in sorted(_spelled_out(path.read_text(), names))
    ]


def test_only_manufactured_spells_out_the_ids_and_sources():
    names = (*EXAMPLE_IDS, *SOURCES)
    assert {"example1", "example2", "discrete", "quadrature"} <= set(names)
    leaks = _leaks("manufactured.py", names)
    assert not leaks, "ids or sources spelled out outside manufactured.py:\n" + "\n".join(leaks)


def test_only_riesz_names_a_scheme():
    assert {"midpoint", "interpolated"} <= set(SCHEMES)
    leaks = _leaks("riesz.py", SCHEMES)
    assert not leaks, "schemes named outside riesz.py:\n" + "\n".join(leaks)


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def test_each_run_default_is_read_from_its_owner():
    # identity, not equality: a default restated as a literal is another object
    config = {f.name: f.default for f in fields(StudyConfig)}
    assert config["example"] is EXAMPLE_IDS[0]
    for default in (config["source"], _default(build_manufactured, "source"),
                    _default(run_inverse_case, "source")):
        assert default is SOURCES[0]
    for default in (config["scheme"], _default(assemble, "scheme"),
                    _default(run_inverse_case, "scheme")):
        assert default is SCHEMES[0]
    for default in (config["tol"], _default(cg_solve, "tol"),
                    _default(make_step_operators, "tol"), _default(run_inverse_case, "tol")):
        assert default is CG_TOL
    for fn in (run_inverse, run_inverse_batch):
        assert _default(fn, "compatibility_tol") is COMPATIBILITY_TOL
    assert _default(run_inverse_case, "smooth_window") is config["smooth_window"]
