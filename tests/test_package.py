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


def test_only_the_engine_computes_the_kinematics():
    """The term engine is the one place where the physics is written down:
    outside it and the transformation, no module computes the per-element
    kinematics (``kinematics``, ``pushed_gradients``, ``deformation``);
    the others read values, residuals and matrices from the engine, and
    det(DF) alone through ``element_kinematics``."""
    found = []
    for path in SOURCES:
        if path.name in ("lagrangian.py", "transform.py"):
            continue
        for node, scope in _calls(ast.parse(path.read_text())):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("kinematics", "pushed_gradients", "deformation"):
                found.append(f"{path.name}:{node.lineno} {name} in {scope}")
    assert not found, found


def test_flow_params_is_kept_only_for_the_benchmark_harness():
    """``flowshape.flow.FlowParams`` is ``KktParams`` under the name that
    ``perfbench/harness.py`` imports, and no public name.  The benchmark
    change of ROADMAP item 2 switches the harness to ``KktParams`` and
    deletes both the alias and this test."""
    from flowshape import flow
    from flowshape.lagrangian import KktParams
    assert flow.FlowParams is KktParams
    assert "FlowParams" not in flow.__all__
    assert not hasattr(flowshape, "FlowParams")


ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                 for path in (ROOT / folder).rglob("*.py"))


def _defaulted_parameters(tree):
    """Each public function and public method of a public class in
    ``tree`` that has parameters with a default: its name, its qualified
    name, and the name of each such parameter with the position a call
    passes it at (None if keyword-only)."""
    found = []

    def add(node, where, method):
        if node.name.startswith("_"):
            return
        args = node.args
        positional = (args.posonlyargs + args.args)[1 if method else 0:]
        offset = len(positional) - len(args.defaults)
        params = [(a.arg, i) for i, a in enumerate(positional) if i >= offset]
        params += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults) if d]
        if params:
            found.append((node.name, where, params))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not any(
                        getattr(d, "id", None) == "staticmethod"
                        for d in item.decorator_list):
                    add(item, f"{node.name}.{item.name}", True)
    return found


def test_every_keyword_has_a_caller():
    """Every defaulted parameter of a public function or method of the
    package is passed, by keyword or by position, in some call in the
    sources, tests, demos or benchmark: an option that no call sets is
    dead code.  Calls are matched by the called name alone, and a call with
    ``*args`` or ``**kwargs`` counts as passing everything."""
    keywords, positions = {}, {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                # a ``**kwargs`` argument shows up as the keyword None
                keywords.setdefault(name, set()).update(
                    k.arg for k in node.keywords)
                count = (float("inf") if any(isinstance(a, ast.Starred)
                                             for a in node.args)
                         else len(node.args))
                positions[name] = max(positions.get(name, 0), count)
    unused = []
    for path in SOURCES:
        for name, where, params in _defaulted_parameters(
                ast.parse(path.read_text())):
            given = keywords.get(name, set())
            unused += [f"{path.name}:{where}({param}=)"
                       for param, i in params
                       if not (param in given or None in given
                               or (i is not None
                                   and i < positions.get(name, 0)))]
    assert not unused, unused


def test_engine_einsums_take_two_operands_and_no_optimize():
    """The term engine and the transformation contract two operands at a
    time over contiguous element vectors: an ``einsum`` of three or more
    operands, or one with ``optimize=``, is many times slower on these
    small per-element shapes."""
    slow = []
    for name in ("lagrangian.py", "transform.py"):
        path = Path(flowshape.__file__).parent / name
        for node, scope in _calls(ast.parse(path.read_text())):
            if getattr(node.func, "attr", getattr(node.func, "id", None)) \
                    != "einsum":
                continue
            where = f"{name}:{node.lineno} in {scope}"
            if len(node.args) > 3 or any(isinstance(a, ast.Starred)
                                         for a in node.args):
                slow.append(f"{where}: {len(node.args) - 1} operands")
            if any(k.arg == "optimize" for k in node.keywords):
                slow.append(f"{where}: optimize=")
    assert not slow, slow
