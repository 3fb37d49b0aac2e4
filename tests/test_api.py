"""Public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import decaylab

MODULES = ["decaylab"] + [f"decaylab.{m.name}"
                          for m in pkgutil.iter_modules(decaylab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert hasattr(mod, "__all__")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
