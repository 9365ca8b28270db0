import importlib
import pkgutil
from pathlib import Path

import pytest

import gpmg

MODULES = [info.name for info in pkgutil.iter_modules(gpmg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gpmg.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_hooks_resolve(monkeypatch):
    # every name the benchmark's tracer wraps must exist, or its per-layer
    # metrics go silently absent; _resolve only looks names up
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    for dotted in [*tracer.HOOKS, *tracer.OBSERVERS]:
        tracer._resolve(dotted)
