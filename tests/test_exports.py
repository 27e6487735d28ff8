"""Every name a module exports must exist, so a deletion cannot leave a stale
entry in an `__all__` behind."""

import importlib
import pkgutil

import pytest

import qudit_epi

MODULES = ["qudit_epi"] + [f"qudit_epi.{m.name}" for m in pkgutil.iter_modules(qudit_epi.__path__)]


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
