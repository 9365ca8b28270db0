"""Linear solvers: SPD interior systems and the rank-1 bordered system.

The Newton step's saddle-point system [[K, -m], [-m', 0]] is solved by a
rank-1 Schur reduction to two solves with K. K itself is handled by a
sparse direct factorization, plain CG, or CG preconditioned with a
geometric V-cycle (Gauss-Seidel smoothing).

Every factorization is made once and solved against many times: each
sparse LU goes through `factor_symmetric`, and the V-cycle factors a
level's Gauss-Seidel triangles when that level joins a hierarchy.
"""

import copy
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
    "factor_symmetric",
    "solve_bordered",
]

# `auto` crossover per (dimension, degree): the interior-dof count above
# which one bordered Newton solve is faster by mg_cg, V-cycle set-up
# included, than direct (2-vCPU box, zeta = 1; table in ROADMAP item 4).
# A pair not listed, as in 1D, always solves direct.
MG_CG_CROSSOVER = {
    (2, 1): 200_000,
    (2, 2): 50_000,
    (3, 1): 3_000,
    (3, 2): 2_000,
}


def factor_symmetric(a):
    """Sparse LU of a matrix with symmetric structure: minimum-degree
    ordering on A' + A, preferring diagonal pivots. Threshold partial
    pivoting stays on, since Newton and bordered matrices may be
    indefinite."""
    return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1,
                     options=dict(SymmetricMode=True))


def _factor_triangle(t):
    """LU of a triangular matrix in its own order with diagonal pivots:
    no fill, so a solve costs one pass over t's entries."""
    return spla.splu(t.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


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
        for key in ("pre_smooth", "post_smooth"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigurationError(
                    f"solver.{key} must be at least 1, got {value}"
                )

    def resolved_method(self, n, dim, degree):
        """The method for n interior dofs of a (dim, degree) problem that
        has coarser levels for a V-cycle: the configured one, or for
        `auto` mg_cg above that pair's crossover and direct otherwise."""
        if self.method != "auto":
            return self.method
        if n > MG_CG_CROSSOVER.get((dim, degree), np.inf):
            return "mg_cg"
        return "direct"


class VCycleHierarchy:
    """Nested interior operators K_1..K_L with prolongations between them.

    Smoothing is Gauss-Seidel: pre_smooth forward sweeps before coarse
    correction, post_smooth backward sweeps after (each count >= 1),
    keeping one V-cycle symmetric so it can precondition CG. Each level's
    lower and upper triangles are factored once, when the level joins, so
    a sweep is one matvec and one triangular solve; the first forward
    sweep starts from zero and needs no matvec. The coarsest level is
    factored by `factor_symmetric`.
    """

    def __init__(self, mats, prolongs, pre_smooth=2, post_smooth=2):
        if len(prolongs) != len(mats) - 1:
            raise ConfigurationError("need one prolongation per level pair")
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        # level 0 is solved exactly; only the finer levels are smoothed
        self.mats = [mats[0].tocsr()]
        self.prolongs, self.lower, self.upper = [], [], []
        self.coarse_lu = factor_symmetric(self.mats[0])
        for m, p in zip(mats[1:], prolongs):
            self._push(m, p)

    def _push(self, mat, prolong):
        mat = mat.tocsr()
        self.mats.append(mat)
        self.prolongs.append(prolong.tocsr())
        self.lower.append(_factor_triangle(sp.tril(mat)))
        self.upper.append(_factor_triangle(sp.triu(mat)))

    def refined(self, mat, prolong):
        """This hierarchy with one finer level K on top, prolong mapping
        the current finest level into it. Every existing factorization is
        shared, not redone."""
        other = copy.copy(self)
        for name in ("mats", "prolongs", "lower", "upper"):
            setattr(other, name, list(getattr(self, name)))
        other._push(mat, prolong)
        return other

    def apply(self, b):
        """One V-cycle on the finest level from zero initial guess."""
        return self._cycle(len(self.mats) - 1, np.asarray(b, dtype=float))

    def _cycle(self, lvl, b):
        if lvl == 0:
            return self.coarse_lu.solve(b)
        k = self.mats[lvl]
        x = self.lower[lvl - 1].solve(b)
        for _ in range(self.pre_smooth - 1):
            x += self.lower[lvl - 1].solve(b - k @ x)
        p = self.prolongs[lvl - 1]
        x += p @ self._cycle(lvl - 1, p.T @ (b - k @ x))
        for _ in range(self.post_smooth):
            x += self.upper[lvl - 1].solve(b - k @ x)
        return x


class SpdSolver:
    """Reusable solver for one interior matrix K under a SolverConfig.

    `auto` is decided by the caller, which knows the problem's dimension
    and degree (`SolverConfig.resolved_method`) and passes a V-cycle
    exactly when that says mg_cg: here it means mg_cg when given one and
    direct otherwise."""

    def __init__(self, k, cfg, vcycle=None):
        self.k = k.tocsr()
        self.cfg = cfg
        self.vcycle = vcycle
        self.method = cfg.method
        if cfg.method == "auto":
            self.method = "direct" if vcycle is None else "mg_cg"
        self.iteration_counts = []
        self._lu = None
        self._knorm = None
        if self.method == "direct":
            self._lu = factor_symmetric(k)
        elif self.method == "mg_cg" and vcycle is None:
            raise ConfigurationError("mg_cg requires a V-cycle hierarchy")

    @property
    def knorm(self):
        """||K||_inf, computed once."""
        if self._knorm is None:
            self._knorm = float(abs(self.k).sum(axis=1).max())
        return self._knorm

    def _backward_error(self, x, b):
        # ||Kx - b|| / (||K|| ||x|| + ||b||): unlike the plain relative
        # residual this stays near eps for a stable solve even when the
        # Newton matrix is nearly singular and ||x|| >> ||b||
        num = float(np.linalg.norm(self.k @ x - b))
        den = self.knorm * float(np.linalg.norm(x)) + float(np.linalg.norm(b))
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
                # dtype given, so scipy does not probe it with a V-cycle
                precond = spla.LinearOperator(
                    self.k.shape, matvec=self.vcycle.apply, dtype=float
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
    scale = (
        solver.knorm * float(np.linalg.norm(u1))
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
        x = factor_symmetric(full).solve(rhs)
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
