"""Every name a module exports must exist, so a deletion cannot leave a stale
entry in an `__all__` behind; every name a file imports must be used, so a
deletion cannot leave a stale import behind; and every top-level definition of
the package must be used by the package or by the README's examples, so a
refactor cannot leave a dead copy behind and code that only the tests reach
lives in `tests/oracles.py`, not in the package."""

import ast
import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import qudit_epi

from test_readme import python_blocks

MODULES = ["qudit_epi"] + [f"qudit_epi.{m.name}" for m in pkgutil.iter_modules(qudit_epi.__path__)]
PACKAGE_SOURCES = sorted(Path(qudit_epi.__file__).parent.glob("*.py"))
SOURCES = PACKAGE_SOURCES + sorted(Path(__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ has duplicates"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_errors_module_defines_three_classes():
    from qudit_epi import errors

    classes = {n for n, v in vars(errors).items() if isinstance(v, type) and issubclass(v, Exception)}
    assert classes == {"QuditEpiError", "ValidationError", "UsageError"}
    assert issubclass(errors.ValidationError, errors.QuditEpiError)
    assert issubclass(errors.UsageError, errors.QuditEpiError)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def _references(tree: ast.AST) -> Counter:
    """Names read in `tree`: loaded names, attribute names and imported names.
    The strings of `__all__` are not references."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", PACKAGE_SOURCES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path):
    # A use counts from another package module, from another statement of
    # the same module, or from a README python block; not from the tests, and
    # not from `__init__.py`, whose imports only re-export.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    elsewhere: Counter = Counter()
    for other in PACKAGE_SOURCES:
        if other != path and other.name != "__init__.py":
            elsewhere.update(_references(ast.parse(other.read_text(encoding="utf-8"))))
    for code in python_blocks():
        elsewhere.update(_references(ast.parse(code)))
    per_statement = [_references(stmt) for stmt in tree.body]
    unreferenced = [
        f"{name} (line {stmt.lineno})"
        for i, stmt in enumerate(tree.body)
        for name in _defined_names(stmt)
        if not (name.startswith("__") and name.endswith("__"))
        and not elsewhere[name]
        and not any(refs[name] for j, refs in enumerate(per_statement) if j != i)
    ]
    assert not unreferenced, f"{path.name} defines names nothing references: {unreferenced}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == qudit_epi.__version__
