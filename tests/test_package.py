"""The package imports, every module exports only names it defines, and the
modules depend on each other only through public names at module level."""

import ast
import importlib
import pkgutil
from pathlib import Path

import flowshape

SOURCES = sorted(Path(flowshape.__file__).parent.glob("*.py"))


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(flowshape.__path__):
        module = importlib.import_module(f"flowshape.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def _package_imports(tree):
    """Each import of a flowshape module in ``tree``, with the function it
    sits in (None at module level)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom) and (
                    child.level > 0 or (child.module or "").split(".")[0]
                    == "flowshape"):
                found.append((child, function))
            elif isinstance(child, ast.Import) and any(
                    a.name.split(".")[0] == "flowshape" for a in child.names):
                found.append((child, function))
            visit(child, function)

    visit(tree, None)
    return found


def test_modules_import_only_public_names_at_module_level():
    assert SOURCES
    private, local = [], []
    for path in SOURCES:
        for node, function in _package_imports(ast.parse(path.read_text())):
            where = f"{path.name}:{node.lineno}"
            if function is not None:
                local.append(f"{where} in {function}")
            if isinstance(node, ast.ImportFrom):
                private += [f"{where} {a.name}" for a in node.names
                            if a.name.startswith("_")]
    assert not private, private
    assert not local, local



# every sparse LU of the program, by file and enclosing function
SPLU_SITES = sorted([
    "fem.py:CurveOperators.factor",
    "flow.py:factorize_flow",
    "extension.py:solve_extension.factorize",
    "kkt.py:_StateElimination.factorize",
])


def _calls(tree):
    """Each call in ``tree`` with the dotted name of the classes and
    functions that enclose it."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                found.append((child, scope))
            visit(child, inner)

    visit(tree, "")
    return found


def test_every_sparse_lu_follows_one_policy():
    """Every ``splu`` of the program factorizes one matrix with the keyword
    arguments ``**LU_OPTIONS`` and no others, sits at one of the expected
    places, and no sparse factorization goes around it (``factorized``,
    ``spsolve``)."""
    splus, bad = [], []
    for path in SOURCES:
        for node, scope in _calls(ast.parse(path.read_text())):
            where = f"{path.name}:{node.lineno}"
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("factorized", "spsolve"):
                bad.append(f"{where} {name}")
            elif name == "splu":
                splus.append(f"{path.name}:{scope}")
                keywords = [(k.arg, getattr(k.value, "id", None))
                            for k in node.keywords]
                if len(node.args) != 1 or keywords != [(None, "LU_OPTIONS")]:
                    bad.append(f"{where} splu without **LU_OPTIONS")
    assert not bad, bad
    assert sorted(splus) == SPLU_SITES
