"""Seeded workload configs and the per-run output check.

Each workload is a `gpmg` config file generated from a seed. The seed only
reassigns the potential's per-axis coefficients among the axes: seed s
applies the (s mod dim!)-th permutation of the axes, so seed 0 keeps them
in place (the shipped config, unchanged). The unit box and its Kuhn meshes are
symmetric under axis permutations, so every seed has the same exact and
discrete eigenvalue and the same `reference_lambda`, while the assembled
matrices differ entry by entry.
"""

import itertools
import math
from dataclasses import dataclass

CSV_HEADER = "level,n_dofs,lambda,err_lambda,err_h1,resi,theta,time_ms"

# Acceptance 3: |lambda - reference| on example 1.
EX1_LAMBDA_TOL = 5e-2
# Acceptance 5: theta stays 0.5 up to one halving or doubling.
EX2_THETAS = (1.0, 0.5, 0.25)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    # Potential with axis placeholders {1}..{dim}; the seed permutes them.
    potential: str
    zeta: float
    degree: int
    n0: int
    levels: int
    reference_lambda: float
    extra: tuple = ()

    def axes(self, seed):
        """Axis order for a seed; seed 0 (and every multiple of dim!) is
        the identity."""
        orders = list(itertools.permutations(range(1, self.dim + 1)))
        return orders[seed % len(orders)]

    def config_text(self, seed, levels=None):
        names = [""] + [f"x{a}" for a in self.axes(seed)]
        return "\n".join([
            f"# workload {self.name}, seed {seed}",
            f"problem.dim = {self.dim}",
            f"problem.potential = {self.potential.format(*names)}",
            f"problem.zeta = {self.zeta}",
            f"discretization.degree = {self.degree}",
            f"discretization.n0 = {self.n0}",
            f"discretization.levels = {levels or self.levels}",
            *self.extra,
            f"reference_lambda = {self.reference_lambda}",
        ]) + "\n"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ex1_newton",
            why="example1.cfg, plain Newton, 3D P2 to 35,937 dofs: sparse "
                "direct LUs (Newton and H1 Riesz) take ~88% of the solve",
            dim=3, potential="{1}^2 + 2*{2}^2 + 4*{3}^2", zeta=1.0,
            degree=2, n0=4, levels=3, reference_lambda=34.819449,
        ),
        Workload(
            name="ex2_mixing",
            why="example2.cfg, mixing driver, zeta=100, 3D P2 to 4,913 dofs: "
                "the coarse SCF and the theta line search dominate, LUs small",
            dim=3,
            potential="{1}^2 + {2}^2 + {3}^2 + sin(2*pi*{1})^2 "
                      "+ sin(2*pi*{2})^2 + sin(2*pi*{3})^2",
            zeta=100.0, degree=2, n0=2, levels=3, reference_lambda=205.112532,
            extra=("mixing.enabled = true", "mixing.theta_init = 0.5"),
        ),
        Workload(
            name="p1_2d_mgcg",
            why="2D P1 to 263,169 dofs: direct below DIRECT_DOF_THRESHOLD, "
                "V-cycle CG above it; the per-dof cost curve of acceptance 8",
            dim=2, potential="{1}^2 + 2*{2}^2", zeta=1.0,
            degree=1, n0=16, levels=6,
            # P2 solve of the same problem from n0=16 over 5 levels (263,169
            # dofs): its last two eigenvalues differ by 7e-8 with the h^4
            # ratio 16; Richardson-extrapolated and rounded.
            reference_lambda=22.794757,
        ),
    )
}


def expected_dofs(dim, degree, n0, levels):
    """Dof count per level of the nested uniform hierarchy on the box."""
    return [(degree * n0 * 2 ** (lvl - 1) + 1) ** dim
            for lvl in range(1, levels + 1)]


def _float(cell):
    return float(cell) if cell else None


def parse_csv(text):
    """Rows of a `gpmg solve` table as dicts; raises ValueError if malformed."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"header is {lines[:1]!r}, expected {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 8:
            raise ValueError(f"row {line!r} has {len(cells)} cells, expected 8")
        rows.append({
            "level": int(cells[0]),
            "n_dofs": int(cells[1]),
            "lambda": float(cells[2]),
            "err_lambda": _float(cells[3]),
            "resi": float(cells[5]),
            "theta": _float(cells[6]),
            "time_ms": float(cells[7]),
        })
    return rows


def check_output(workload, levels, exit_code, csv_text):
    """Problems found in one run's output; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rows = parse_csv(csv_text)
    except ValueError as err:
        return [f"malformed CSV: {err}"]
    problems = []
    dofs = expected_dofs(workload.dim, workload.degree, workload.n0, levels)
    got = [r["n_dofs"] for r in rows]
    if got != dofs or [r["level"] for r in rows] != list(range(1, levels + 1)):
        problems.append(f"levels/dofs {got}, expected {dofs}")
    if not all(math.isfinite(r[k]) for r in rows for k in ("lambda", "resi")):
        problems.append("non-finite lambda or resi")
    resis = [r["resi"] for r in rows]
    if any(b >= a for a, b in zip(resis, resis[1:])):
        problems.append(f"resi does not decrease over levels: {resis}")
    if not problems and rows[-1]["err_lambda"] is None:
        problems.append("final row has no err_lambda")
    lams = [r["lambda"] for r in rows]
    name = workload.name
    if name == "ex1_newton" and rows:
        err = abs(lams[-1] - workload.reference_lambda)
        if not err <= EX1_LAMBDA_TOL:
            problems.append(f"|lambda - reference| = {err:.3e} > {EX1_LAMBDA_TOL}")
    elif name == "ex2_mixing":
        thetas = [r["theta"] for r in rows[1:]]
        if (any(t not in EX2_THETAS for t in thetas)
                or sum(t != 0.5 for t in thetas) > 1):
            problems.append(f"theta values {thetas}: expected 0.5 up to one "
                            "halving or doubling")
    elif name == "p1_2d_mgcg":
        if any(b >= a for a, b in zip(lams, lams[1:])):
            problems.append(f"lambda does not decrease over levels: {lams}")
    return problems
