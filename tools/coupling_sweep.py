"""Map where one Newton step per level holds as the coupling grows.

usage: python3 tools/coupling_sweep.py [--zetas Z ...] [--n0s N ...]
                                       [--levels L]

Runs `gpmg solve` in-process on example 2's potential, P2 on the unit
cube, over the grid zeta x n0 x driver (plain Newton, and the mixing
driver from theta = 1). Defaults: zeta in {1, 10, 1e2, 1e3, 1e4}, n0 in
{2, 4}, 3 levels. Prints one markdown table row per cell: its exit code,
the theta of every level above the coarsest, the finest row's resi, and
the first stderr line of a run that fails.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gpmg.cli import run as gpmg_run  # noqa: E402

POTENTIAL = ("x1^2 + x2^2 + x3^2 + sin(2*pi*x1)^2 + sin(2*pi*x2)^2"
             " + sin(2*pi*x3)^2")
DRIVERS = ("plain", "mixing")
HEADER = ("| n0 | driver | zeta | exit | theta per level | finest resi | "
          "error |\n| --- | --- | --- | --- | --- | --- | --- |")


def config_text(zeta, n0, levels, driver):
    return "\n".join([
        "problem.dim = 3",
        f"problem.potential = {POTENTIAL}",
        f"problem.zeta = {zeta}",
        "discretization.degree = 2",
        f"discretization.n0 = {n0}",
        f"discretization.levels = {levels}",
        f"mixing.enabled = {'true' if driver == 'mixing' else 'false'}",
        "mixing.theta_init = 1.0",
    ]) + "\n"


def run_cell(zeta, n0, levels, driver):
    """(exit code, thetas, finest resi, first stderr line) of one cell."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text(zeta, n0, levels, driver))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gpmg_run(["solve", "--config", path])
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    thetas = [row[6] for row in rows[1:]]
    resi = rows[-1][5] if rows else ""
    first = (err.getvalue().splitlines() or [""])[0]
    return code, thetas, resi, first


def row(zeta, n0, driver, cell):
    code, thetas, resi, first = cell
    return (f"| {n0} | {driver} | {zeta:g} | {code} | "
            f"{', '.join(t for t in thetas if t) or '-'} | {resi or '-'} | "
            f"{first.replace('|', '/') or '-'} |")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--zetas", type=float, nargs="+",
                   default=[1.0, 10.0, 100.0, 1000.0, 10000.0])
    p.add_argument("--n0s", type=int, nargs="+", default=[2, 4])
    p.add_argument("--levels", type=int, default=3)
    args = p.parse_args(argv)
    print(HEADER)
    for n0 in args.n0s:
        for driver in DRIVERS:
            for zeta in args.zetas:
                cell = run_cell(zeta, n0, args.levels, driver)
                print(row(zeta, n0, driver, cell), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
