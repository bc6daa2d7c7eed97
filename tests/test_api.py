"""Public names: every ``__all__`` entry resolves and star-imports work."""

import importlib
import pkgutil

import pytest

import blochlat

MODULES = ["blochlat"] + [
    f"blochlat.{info.name}" for info in pkgutil.iter_modules(blochlat.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= namespace.keys()
