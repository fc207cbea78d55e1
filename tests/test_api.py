"""The public API takes no tolerance arguments, private names stay private, and
every public name is called by the package or listed in the README's API section.

Every judgement reads one named module constant (``lie_core.SYMMETRY_TOL``,
``hermitian_forms.INTEGRABILITY_TOL``, ``connections.JACOBI_TOL``, ...), so a
tolerance changes in one place and not once per call path.  No module imports
another module's ``_name``: a check that needs sharing is public.  A metric's
inverse is computed by ``HermitianMetric`` alone.  The package runs on numpy
alone; scipy is a test oracle.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from pluriflow import (
    bismut_ricci,
    catalog,
    cli,
    connections,
    errors,
    flows,
    hermitian_forms,
    lie_core,
)

MODULES = (lie_core, hermitian_forms, connections, bismut_ricci, flows, catalog, cli, errors)


def _public_callables(module):
    """(qualified name, callable) for every public function, class and method
    defined in the module; a class stands for its constructor."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{module.__name__}.{name}.{attr}", member


def _is_tolerance(param: str) -> bool:
    return param == "tol" or param.endswith("_tol") or param == "cond_bound"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_no_tolerance_parameters(module):
    found = []
    for qualname, obj in _public_callables(module):
        try:
            params = inspect.signature(obj).parameters
        except ValueError:   # exception classes inherit a built-in constructor
            continue
        found += [f"{qualname}({p})" for p in params if _is_tolerance(p)]
    assert not found, f"tolerance parameters: {', '.join(found)}"


def test_no_private_name_crosses_modules():
    # a private helper is its module's own: no module imports another's _name
    src = Path(lie_core.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or "pluriflow" in (node.module or "")):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, f"private names imported across modules: {', '.join(found)}"


def test_every_import_is_read():
    # a name a module imports and never reads is left behind by a move;
    # __future__ is exempt, and so is __init__, whose imports are its exports
    src = Path(lie_core.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unread += [f"{path.name}: {name}" for name in imported if name not in read]
    assert not unread, f"imported and never read: {', '.join(unread)}"


def _inv_calls(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "inv"]


def test_only_the_metric_inverts_a_metric():
    # a metric owns its inverse and Gram pair; the kernels take G^-1 and never default it
    src = Path(lie_core.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
    for name in ("bismut_ricci.py", "connections.py"):
        assert not _inv_calls(trees[name]), f"{name} inverts a matrix"
    metric = next(node for node in ast.walk(trees["hermitian_forms.py"])
                  if isinstance(node, ast.ClassDef) and node.name == "HermitianMetric")
    assert len(_inv_calls(trees["hermitian_forms.py"])) == len(_inv_calls(metric)) > 0
    defaulted = []
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                a = fn.args
                params = a.posonlyargs + a.args
                with_default = params[len(params) - len(a.defaults):] + [
                    p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                defaulted += [f"{name}: {fn.name}" for p in with_default if p.arg == "Ginv"]
    assert not defaulted, f"Ginv with a default: {', '.join(defaulted)}"


def test_the_package_runs_on_numpy_alone():
    # no module imports scipy, at the top or lazily, and numpy is the one
    # runtime dependency; docstrings may still cite scipy's algorithms
    src = Path(lie_core.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported by the package: {', '.join(found)}"
    pyproject = (src.parents[1] / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', block) == ["numpy"]


def _public_definitions(tree):
    """(qualified name, node, is_method) for each public top-level function and
    class of a module and each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member, True


def _readme_api_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.partition("\n## API\n")[2].split("\n## ", 1)[0]


def test_every_public_name_has_a_caller_or_a_readme_entry():
    # a name is called if another line of the package refers to it: as an
    # attribute (ast.Attribute), or for a module-level name also by name
    # (ast.Name); its own definition and __init__'s re-exports do not count
    src = Path(lie_core.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    by_name, by_attribute = {}, {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                by_name.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                by_attribute.setdefault(n.attr, []).append(n)
    section = _readme_api_section()
    listed = re.findall(r"^- `([\w.]+)`", section, re.M)
    uncalled = []
    for module, tree in trees.items():
        for qualname, node, is_method in _public_definitions(tree):
            refs = by_attribute.get(node.name, []) + (
                [] if is_method else by_name.get(node.name, []))
            own = {id(n) for n in ast.walk(node)}
            called = any(id(n) not in own for n in refs)
            if not called and f"{module}.{qualname}" not in listed:
                uncalled.append(f"{module}.{qualname}")
    assert not uncalled, f"public names with no caller and no README API entry: {uncalled}"
    # the converse: every listed name and every test named beside it exists
    for name in listed:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"pluriflow.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name
    tests = {fn.name for path in Path(__file__).parent.glob("test_*.py")
             for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef)}
    named = re.findall(r"`(test_\w+)`", section)
    assert named and not set(named) - tests, f"README names missing tests: {set(named) - tests}"
