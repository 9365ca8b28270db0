"""Smoke test of the benchmark at 2 levels.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402

EX2_CSV = """\
level,n_dofs,lambda,err_lambda,err_h1,resi,theta,time_ms
1,125,2.533249509260e+02,4.821242e+01,,6.137208e+00,,995.327
2,729,2.209167385768e+02,1.580421e+01,,3.249560e+00,0.5,55.584
"""


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace),
         "--levels", "2"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_printed(proc, metrics):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == metrics
    for name, unit in metrics.items():
        assert any(ln.startswith(f"metric {name} = ") and f" {unit} " in ln
                   for ln in lines), name
    assert any(ln.startswith("metric fail_rate = 0.0 ratio") for ln in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    metrics = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    _check_printed(_bench(workload, 0), metrics)


def test_per_layer_metrics_printed_with_units():
    metrics = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert metrics == {k: unit for k, (unit, _) in tracer.PER_LAYER.items()}
    _check_printed(_bench("ex2_mixing", 1), metrics)


def test_spec_lists_workloads_and_why():
    # ex1_newton stays runnable by hand but is not in the spec: one solve
    # takes ~45 s, too long to repeat within a run.
    spec = _spec()
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    assert set(listed) == set(WORKLOADS) - {"ex1_newton"}
    assert listed == {name: WORKLOADS[name].why for name in listed}


def test_output_check_rejects_corrupted_csv():
    w = WORKLOADS["ex2_mixing"]
    assert check_output(w, 2, 0, EX2_CSV) == []
    corrupted = [
        EX2_CSV.replace("err_lambda", "err_lam"),         # header
        EX2_CSV.replace("2,729,", "2,728,"),              # dof count
        EX2_CSV.replace("3.249560e+00", "7.0e+00"),       # resi rises
        EX2_CSV.replace(",0.5,", ",0.125,"),              # theta
        EX2_CSV.rsplit("2,729", 1)[0],                    # level missing
        EX2_CSV.replace("995.327", "995.327,extra"),    # extra cell
    ]
    for text in corrupted:
        assert check_output(w, 2, 0, text), text
    assert check_output(w, 2, 3, EX2_CSV)
    p1 = EX2_CSV.replace("125,", "289,").replace("729,", "1089,")
    p1 = p1.replace("2.209167385768e+02", "2.6e+02")      # lambda rises
    assert check_output(WORKLOADS["p1_2d_mgcg"], 2, 0, p1)


def test_seed_zero_is_the_shipped_config():
    from gpmg.config import load_config, parse_config_text

    for name, shipped in (("ex1_newton", "example1.cfg"),
                          ("ex2_mixing", "example2.cfg")):
        path = os.path.join(ROOT, "src", "gpmg", "configs", shipped)
        assert parse_config_text(WORKLOADS[name].config_text(0)) == \
            load_config(path)


def test_missing_hook_is_absent_not_fatal(monkeypatch):
    gone = "newton.LevelContext.riesz_norm_renamed"
    monkeypatch.setitem(tracer.HOOKS, gone, "newton.riesz")
    tr = tracer.Tracer()
    tr.install([gone])
    assert tr.absent == [gone]
    assert tracer.absent_metrics(["newton.LevelContext.riesz_norm"]) == {
        "newton.riesz_first_s", "newton.riesz_rest_s"}
    assert tracer.layer_metrics([])["newton.riesz_first_s"] == 0


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("ex2_mixing", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
