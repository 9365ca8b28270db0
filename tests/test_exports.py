import importlib
import json
import pkgutil
import subprocess
import sys
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


def test_traced_benchmark_run_reports_every_hook_and_layer(monkeypatch,
                                                           tmp_path):
    # one traced benchmark child on a 2-level example 2: a renamed hook
    # (SpdSolver.method, BorderedSolution.schur, _solve_bordered_full, ...)
    # shows up as an absent hook or a layer metric left None
    root = Path(__file__).parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    workloads = importlib.import_module("workloads")
    config = tmp_path / "ex2.cfg"
    config.write_text(workloads.WORKLOADS["ex2_mixing"].config_text(
        1, levels=2))
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), str(root),
         "traced", str(config), str(tmp_path / "out.csv"), str(result)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert (out["exit_code"], out["error"]) == (0, None)
    assert out["absent_hooks"] == []
    assert [name for name, value in out["layers"].items()
            if value is None] == []
