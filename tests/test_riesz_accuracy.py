import importlib
from pathlib import Path

import pytest

from riesz_bounds import RIESZ_HIGH, RIESZ_LOW

CONFIG = """\
problem.dim = 2
problem.potential = x1^2 + 2*x2^2
problem.zeta = 1.0
discretization.degree = 1
discretization.n0 = 4
discretization.levels = 3
"""


@pytest.fixture
def riesz_accuracy(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    return importlib.import_module("riesz_accuracy")


def test_every_riesz_norm_of_a_solve_is_measured_within_the_contract(
        riesz_accuracy, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    assert riesz_accuracy.main([str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "level,n_dofs,pcg_iterations,rel_error"
    rows = [line.split(",") for line in lines[1:-1]]
    levels = {int(level): int(n) for level, n, _, _ in rows}
    assert levels == {1: 25, 2: 81, 3: 289}
    errors = [float(err) for *_, err in rows]
    assert all(-RIESZ_LOW <= err <= RIESZ_HIGH for err in errors)
    # the coarsest level's solve is its exact LU: one iteration
    assert {int(it) for level, _, it, _ in rows if level == "1"} == {1}
    assert lines[-1] == (f"# calls {len(rows)}, rel_error min "
                         f"{min(errors):+.3e} max {max(errors):+.3e}")


def test_usage_without_a_config(riesz_accuracy, capsys):
    assert riesz_accuracy.main([]) == 2
    assert "CONFIG" in capsys.readouterr().err
