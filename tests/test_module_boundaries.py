"""Only ``forward.py``, where ``StepOperators`` and its route subclasses live, knows
how a solver route works.  Every other module asks a ``StepOperators`` for what it
needs (``decay``, ``trajectory``, ``to_basis``, ...): it reads no route's private
``_diagonals`` and compares no ``.solver`` with a route's name."""

import ast
from pathlib import Path

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
