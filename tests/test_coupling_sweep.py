import importlib
from pathlib import Path

import pytest


@pytest.fixture
def coupling_sweep(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "tools"))
    return importlib.import_module("coupling_sweep")


def test_sweep_prints_one_row_per_cell(coupling_sweep, capsys):
    # n0 = 2 over 2 levels: plain Newton stagnates on level 2 at zeta = 100,
    # where the mixing driver halves theta once
    assert coupling_sweep.main(["--n0s", "2", "--levels", "2",
                                "--zetas", "1", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "\n".join(lines[:2]) == coupling_sweep.HEADER
    cells = [[c.strip() for c in line.strip("|").split("|")]
             for line in lines[2:]]
    assert [c[:5] for c in cells] == [
        ["2", "plain", "1", "0", "-"],
        ["2", "plain", "100", "3", "-"],
        ["2", "mixing", "1", "0", "1"],
        ["2", "mixing", "100", "0", "0.5"],
    ]
    assert cells[1][6].startswith("error: level 2: Newton step stagnated")
    for cell in (cells[0], cells[2], cells[3]):
        assert float(cell[5]) > 0.0 and cell[6] == "-"
