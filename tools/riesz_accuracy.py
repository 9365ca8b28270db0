"""Measure every H1 Riesz norm of one `gpmg solve` against a direct solve.

usage: python3 tools/riesz_accuracy.py CONFIG

Runs `gpmg solve --config CONFIG` in-process (its CSV is discarded) and
records every `Operators.riesz_norm` call: the level, its dof count, the
PCG iterations of the call and the functional. After the run each norm is
compared with sqrt(f.z) for z from `splu` of the level's interior H1
matrix plus one step of iterative refinement. One line per call gives the
level, dofs, iterations and the signed relative error (got - want) / want;
the last line gives the most negative and the most positive error. CG from
zero can only underestimate the norm, so a negative error is the solve's
truncation and a positive one is round-off.
"""

import os
import sys
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gpmg.assembly import Operators  # noqa: E402
from gpmg.cli import main as gpmg_main  # noqa: E402


def _level(ops):
    level = 1
    while ops.coarser is not None:
        ops, level = ops.coarser, level + 1
    return level


def record_calls(argv):
    """Run `gpmg` with argv; return its exit code and one
    (ops, functional, norm, iterations) tuple per riesz_norm call."""
    calls = []
    riesz_norm = Operators.riesz_norm

    def recording(ops, functional):
        counts = ops._riesz_solver().iteration_counts
        before = len(counts)
        norm = riesz_norm(ops, functional)
        # a zero functional is returned without a PCG solve
        iterations = counts[-1] if len(counts) > before else 0
        calls.append((ops, functional.copy(), norm, iterations))
        return norm

    Operators.riesz_norm = recording
    try:
        code = gpmg_main(argv)
    finally:
        Operators.riesz_norm = riesz_norm
    return code, calls


def relative_errors(calls):
    """Rows (level, n_dofs, iterations, (got - want) / want), want from an
    LU with one refinement step; one LU per distinct H1 matrix."""
    lus, rows = {}, []
    for ops, functional, got, iterations in calls:
        key = id(ops.h1)
        if key not in lus:
            a = ops.h1.tocsc()
            lus[key] = (a, spla.splu(a))
        a, lu = lus[key]
        z = lu.solve(functional)
        z += lu.solve(functional - a @ z)
        want = float(np.sqrt(z @ functional))
        rows.append((_level(ops), ops.space.n_dofs, iterations,
                     (got - want) / want))
    return rows


def report(rows):
    lines = ["level,n_dofs,pcg_iterations,rel_error"]
    lines += [f"{lvl},{n},{it},{err:+.3e}" for lvl, n, it, err in rows]
    errs = [row[3] for row in rows]
    lines.append(f"# calls {len(rows)}, rel_error min {min(errs):+.3e} "
                 f"max {max(errs):+.3e}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with np.errstate(all="ignore"):
        code, calls = record_calls(["solve", "--config", argv[0],
                                    "--out", os.devnull])
    if code != 0:
        print(f"error: gpmg solve exited {code}", file=sys.stderr)
        return code
    if not calls:
        print("error: the run evaluated no Riesz norm", file=sys.stderr)
        return 1
    print("\n".join(report(relative_errors(calls))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
