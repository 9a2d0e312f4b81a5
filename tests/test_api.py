"""Every exported name resolves: the package's and each submodule's __all__."""

import importlib
import pkgutil

import pytest

import hkhovanov

# __main__ runs the command line on import
MODULES = ["hkhovanov"] + [f"hkhovanov.{m.name}"
                           for m in pkgutil.iter_modules(hkhovanov.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

