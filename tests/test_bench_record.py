import importlib
import json
import subprocess
from pathlib import Path

import pytest


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    return importlib.import_module("bench_record")


def _record(*metrics):
    return {"runs": [{"seed": seed, "metrics": m}
                     for seed, m in enumerate(metrics, start=1)]}


def test_pair_summary_gives_each_pairs_ratio_and_the_pairs_improved(
        bench_record):
    parent = _record({"peak_rss_mb": 450.0, "setup_s": 1.0, "schur": 2.0},
                     {"peak_rss_mb": 460.0, "setup_s": 1.0, "schur": 2.0},
                     {"peak_rss_mb": 400.0, "setup_s": 2.0, "schur": 4.0})
    change = _record({"peak_rss_mb": 360.0, "setup_s": 1.1, "schur": 3.0},
                     {"peak_rss_mb": 368.0, "setup_s": 0.5, "schur": 2.0},
                     {"peak_rss_mb": 400.0, "setup_s": 1.0, "schur": 2.0})
    better = {"peak_rss_mb": "lower", "setup_s": "lower", "schur": "higher",
              "absent_s": "lower"}
    assert bench_record.pair_summary(parent, change, better) == [
        "peak_rss_mb: change/parent 0.800 0.800 1.000; better in 2 of 3 "
        "pairs",
        "setup_s: change/parent 1.100 0.500 0.500; better in 2 of 3 pairs",
        "schur: change/parent 1.500 1.000 0.500; better in 1 of 3 pairs",
    ]


def test_paired_runs_alternate_which_tree_goes_first(bench_record,
                                                      monkeypatch):
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        calls.append((tree, seed))
        return {"tree": tree, "seed": seed}

    monkeypatch.setattr(bench_record, "run_seed", fake_run)
    parent_runs, change_runs = bench_record.paired_runs(
        "parent", "change", "p1_2d_mgcg", [5, 6, 7], 10.0, 0)
    assert calls == [("parent", 5), ("change", 5), ("change", 6),
                     ("parent", 6), ("parent", 7), ("change", 7)]
    assert [r["seed"] for r in parent_runs] == [5, 6, 7]
    assert {r["tree"] for r in change_runs} == {"change"}


def test_metric_directions_read_the_benchmark_declaration(bench_record):
    better = bench_record.metric_directions(Path(__file__).parents[1])
    assert better["peak_rss_mb"] == "lower"
    assert better["linsolve.method_mg_cg"] == "higher"


def test_only_program_changes_make_a_tree_dirty(bench_record, tmp_path):
    # the BENCH files the tool appends to are tracked; changing one, or any
    # other file outside src/ and perfbench/, leaves the record clean
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    for name in ("src/gpmg.py", "perfbench/run.py", "BENCH_w_1.json",
                 "README.md"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("0\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    assert bench_record._dirty(tmp_path) is False
    (tmp_path / "BENCH_w_1.json").write_text("1\n")
    (tmp_path / "README.md").write_text("1\n")
    assert bench_record._dirty(tmp_path) is False
    for name in ("src/gpmg.py", "perfbench/run.py"):
        (tmp_path / name).write_text("1\n")
        assert bench_record._dirty(tmp_path) is True
        git("checkout", "--", name)


def test_parent_sha_names_the_parent_records_commit(bench_record, tmp_path,
                                                     monkeypatch, capsys):
    # a `git archive` parent has no .git, so perfbench reads its sha as
    # "unknown"; --parent-sha writes the commit into the parent's record
    # only
    for tree in ("parent", "change"):
        (tmp_path / tree / "perfbench").mkdir(parents=True)
        (tmp_path / tree / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "solve_s", "better": "lower"}]}')

    def fake_run(tree, workload, seed, seconds, trace):
        sha = "unknown" if tree.endswith("parent") else "c" * 40
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"solve_s": 1.0}, "units": {"solve_s": "s"},
                "env": {"git_sha": sha}}

    monkeypatch.setattr(bench_record, "run_seed", fake_run)
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "w", "--seeds", "1", "2", "--seconds", "1",
            "--trace", "0", "--root", "change", "--parent", "parent"]
    assert bench_record.main([*argv, "--parent-sha", "p" * 40]) == 0
    (out,) = tmp_path.glob("BENCH_w_*.json")
    parent, change = json.loads(out.read_text())["records"]
    assert parent["env"]["git_sha"] == "p" * 40
    assert change["env"]["git_sha"] == "c" * 40
    assert bench_record.main(argv[:-2] + ["--parent-sha", "p" * 40]) == 2
    assert "--parent-sha needs --parent" in capsys.readouterr().err
