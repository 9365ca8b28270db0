"""Linear solvers: SPD interior systems and the rank-1 bordered system.

The Newton step's saddle-point system [[K, -m], [-m', 0]] is solved by a
rank-1 Schur reduction to two solves with K. K itself is handled by a
sparse direct factorization, plain CG, or CG preconditioned with a
geometric V-cycle (Gauss-Seidel smoothing).
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CoercivityError, ConfigurationError, SolverError

__all__ = [
    "SolverConfig",
    "BorderedSystem",
    "BorderedSolution",
    "VCycleHierarchy",
    "SpdSolver",
    "solve_bordered",
]

DIRECT_DOF_THRESHOLD = 200_000


@dataclass
class SolverConfig:
    method: str = "auto"  # auto | direct | cg | mg_cg
    rel_tol: float = 1e-10
    max_iter: int = 1000
    pre_smooth: int = 2
    post_smooth: int = 2

    def __post_init__(self):
        if self.method not in ("auto", "direct", "cg", "mg_cg"):
            raise ConfigurationError(f"unknown solver method {self.method!r}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ConfigurationError("solver rel_tol must be in (0, 1)")

    def resolved_method(self, n, have_hierarchy):
        if self.method != "auto":
            return self.method
        if n <= DIRECT_DOF_THRESHOLD:
            return "direct"
        return "mg_cg" if have_hierarchy else "cg"


class VCycleHierarchy:
    """Nested interior operators K_1..K_L with prolongations between them.

    Smoothing is Gauss-Seidel: forward sweeps before coarse correction,
    backward sweeps after, keeping one V-cycle symmetric so it can
    precondition CG.
    """

    def __init__(self, mats, prolongs, pre_smooth=2, post_smooth=2):
        if len(prolongs) != len(mats) - 1:
            raise ConfigurationError("need one prolongation per level pair")
        self.mats = [m.tocsr() for m in mats]
        self.prolongs = [p.tocsr() for p in prolongs]
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        self.lower = [sp.tril(m, format="csr") for m in self.mats]
        self.upper = [sp.triu(m, format="csr") for m in self.mats]
        self.coarse_lu = spla.splu(self.mats[0].tocsc())

    def apply(self, b):
        """One V-cycle on the finest level from zero initial guess."""
        return self._cycle(len(self.mats) - 1, np.asarray(b, dtype=float))

    def _cycle(self, lvl, b):
        if lvl == 0:
            return self.coarse_lu.solve(b)
        k = self.mats[lvl]
        x = np.zeros_like(b)
        for _ in range(self.pre_smooth):
            x += spla.spsolve_triangular(self.lower[lvl], b - k @ x, lower=True)
        p = self.prolongs[lvl - 1]
        x += p @ self._cycle(lvl - 1, p.T @ (b - k @ x))
        for _ in range(self.post_smooth):
            x += spla.spsolve_triangular(self.upper[lvl], b - k @ x, lower=False)
        return x


class SpdSolver:
    """Reusable solver for one interior matrix K under a SolverConfig."""

    def __init__(self, k, cfg, vcycle=None):
        self.k = k.tocsr()
        self.cfg = cfg
        self.vcycle = vcycle
        self.method = cfg.resolved_method(k.shape[0], vcycle is not None)
        self.iteration_counts = []
        self._lu = None
        self._knorm = None
        if self.method == "direct":
            self._lu = spla.splu(k.tocsc())
        elif self.method == "mg_cg" and vcycle is None:
            raise ConfigurationError("mg_cg requires a V-cycle hierarchy")

    def _backward_error(self, x, b):
        # ||Kx - b|| / (||K|| ||x|| + ||b||): unlike the plain relative
        # residual this stays near eps for a stable solve even when the
        # Newton matrix is nearly singular and ||x|| >> ||b||
        if self._knorm is None:
            self._knorm = float(abs(self.k).sum(axis=1).max())
        num = float(np.linalg.norm(self.k @ x - b))
        den = self._knorm * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
        return num / den

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            return np.zeros_like(b)
        if self.method == "direct":
            x = self._lu.solve(b)
            for _ in range(3):
                if self._backward_error(x, b) <= self.cfg.rel_tol:
                    break
                x = x + self._lu.solve(b - self.k @ x)
        else:
            precond = None
            if self.method == "mg_cg":
                precond = spla.LinearOperator(
                    self.k.shape, matvec=self.vcycle.apply
                )
            count = [0]

            def _cb(_):
                count[0] += 1

            x, info = spla.cg(
                self.k,
                b,
                rtol=self.cfg.rel_tol * 0.1,
                atol=0.0,
                maxiter=self.cfg.max_iter,
                M=precond,
                callback=_cb,
            )
            self.iteration_counts.append(count[0])
            if info != 0:
                achieved = float(np.linalg.norm(self.k @ x - b)) / bnorm
                raise SolverError(
                    f"cg failed to converge in {self.cfg.max_iter} iterations "
                    f"(relative residual {achieved:.3e})",
                    achieved=achieved,
                )
        achieved = self._backward_error(x, b)
        if achieved > self.cfg.rel_tol:
            raise SolverError(
                f"linear solve backward error {achieved:.3e} above "
                f"{self.cfg.rel_tol:.3e}",
                achieved=achieved,
            )
        return x


@dataclass
class BorderedSystem:
    """[[K, -m], [-m', 0]] @ [u1, lambda1] = [r, c] on interior dofs."""

    k: sp.spmatrix
    m: np.ndarray
    r: np.ndarray
    c: float


@dataclass
class BorderedSolution:
    u: np.ndarray
    lam: float
    # the Schur scalar m' K^{-1} m; positive when K is coercive
    schur: float

    def __iter__(self):
        return iter((self.u, self.lam))


def solve_bordered(system, cfg=None, vcycle=None):
    """Rank-1 Schur reduction: y = K^-1 m, z = K^-1 r, then

        lambda1 = -(c + m'z) / (m'y),   u1 = z + lambda1 * y.

    A nonpositive Schur scalar m'y means K lost positive definiteness at
    the linearization point. Iterative SPD methods cannot certify their
    solves there, so that is an error for them; the direct path accepts
    any verified nonsingular solve.
    """
    cfg = cfg or SolverConfig()
    if np.linalg.norm(system.m) == 0.0:
        raise ConfigurationError("bordered system needs a nonzero border m")
    solver = SpdSolver(system.k, cfg, vcycle=vcycle)
    try:
        y = solver.solve(system.m)
        z = solver.solve(system.r)
    except SolverError as err:
        if solver.method != "direct":
            raise CoercivityError(
                "iterative solve on the Newton matrix failed; the "
                f"linearization may be indefinite ({err})"
            ) from err
        # K itself may be (numerically) singular at an exact eigenpair;
        # the bordered matrix is still regular, so factor it whole
        return _solve_bordered_full(system, cfg)
    my = float(system.m @ y)
    if my <= 0.0 and solver.method != "direct":
        raise CoercivityError(
            f"Schur scalar m'K^-1m = {my:.3e} <= 0: linearized operator is "
            "not positive definite at this iterate"
        )
    lam1 = -(system.c + float(system.m @ z)) / my
    u1 = z + lam1 * y
    knorm = float(abs(system.k).sum(axis=1).max())
    scale = (
        knorm * float(np.linalg.norm(u1))
        + abs(lam1) * float(np.linalg.norm(system.m))
        + float(np.linalg.norm(system.r))
    )
    res1 = float(np.linalg.norm(system.k @ u1 - lam1 * system.m - system.r))
    res2 = abs(-float(system.m @ u1) - system.c)
    tol = cfg.rel_tol * 100.0
    if res1 > tol * max(scale, 1e-30) or res2 > tol * (1.0 + abs(system.c)):
        if solver.method == "direct":
            return _solve_bordered_full(system, cfg, schur=my)
        if my <= 0.0:
            raise CoercivityError(
                "bordered solve inconsistent and Schur scalar nonpositive "
                f"(m'y = {my:.3e}); iterate left the coercive basin"
            )
        raise SolverError(
            f"bordered solve residuals {res1:.3e}, {res2:.3e} above tolerance",
            achieved=res1 / max(scale, 1e-30),
        )
    return BorderedSolution(u=u1, lam=lam1, schur=my)


def _solve_bordered_full(system, cfg, schur=0.0):
    """Sparse LU of the whole saddle-point matrix. Fallback for Newton
    matrices that are singular (exact eigenpair) or too ill-conditioned
    for the rank-1 Schur reduction."""
    n = system.k.shape[0]
    mcol = sp.csc_matrix((-system.m, (np.arange(n), np.zeros(n, dtype=int))),
                         shape=(n, 1))
    full = sp.bmat([[system.k, mcol], [mcol.T, None]], format="csc")
    rhs = np.concatenate([system.r, [system.c]])
    try:
        x = spla.splu(full).solve(rhs)
    except RuntimeError as err:
        raise SolverError(f"bordered matrix is singular: {err}") from err
    res = np.linalg.norm(full @ x - rhs)
    fnorm = float(abs(full).sum(axis=1).max())
    if res > cfg.rel_tol * 100.0 * (fnorm * np.linalg.norm(x)
                                    + np.linalg.norm(rhs)):
        raise SolverError(
            f"full bordered solve residual {res:.3e} above tolerance"
        )
    return BorderedSolution(u=x[:n], lam=float(x[n]), schur=schur)
