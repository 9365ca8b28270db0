import importlib
import pkgutil

import pytest

import gpmg

MODULES = [info.name for info in pkgutil.iter_modules(gpmg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gpmg.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
