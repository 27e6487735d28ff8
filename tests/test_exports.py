"""Every name a module exports must exist, so a deletion cannot leave a stale
entry in an `__all__` behind; and every name a file imports must be used, so a
deletion cannot leave a stale import behind."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import qudit_epi

MODULES = ["qudit_epi"] + [f"qudit_epi.{m.name}" for m in pkgutil.iter_modules(qudit_epi.__path__)]
SOURCES = sorted(Path(qudit_epi.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_version_matches_pyproject():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == qudit_epi.__version__
