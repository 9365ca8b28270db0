"""Linear solvers: SPD interior systems and the rank-1 bordered system.

The Newton step's saddle-point system [[K, -m], [-m', 0]] is solved either
directly, by a rank-1 Schur reduction to two sparse LU solves with K, or
by one projected PCG solve on the tangent space {v : m'v = 0}, where K is
coercive near the ground state even when K itself is indefinite. An SPD
interior system (the H1 Riesz problem) is solved by the same PCG loop
without the constraint, or by a sparse LU. PCG is preconditioned with a
geometric V-cycle whose smoother is a Chebyshev polynomial in D^-1 A (A
the V-cycle's matrix, D its diagonal), so smoothing costs matvecs only.

PCG, its backward-error check and the bordered solve run in float64. The
V-cycle only has to approximate A^-1, so its smoothed levels run in
float32 (matrices, prolongations, D^-1 and vectors), which halves the
bytes each memory-bound matvec moves per nonzero value; the coarsest
level is a float64 LU.

Every factorization is made once and solved against many times: each
sparse LU goes through `factor_symmetric`. A V-cycle factors only its
coarsest level; a finer level's smoother (inverse diagonal and Chebyshev
interval) is set up when the level joins a hierarchy.
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
    "as_float32",
    "factor_symmetric",
    "pcg",
    "solve_bordered",
]


def factor_symmetric(a):
    """Sparse LU of a matrix with symmetric structure: minimum-degree
    ordering on A' + A, preferring diagonal pivots. Threshold partial
    pivoting stays on, since Newton and bordered matrices may be
    indefinite."""
    return spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.1,
                     options=dict(SymmetricMode=True))


# Rows of |K| per block of `SpdSolver.knorm`: a block's one temporary
# of note is its |data|, 4,096 rows of 7 entries in 2D P1 (0.2 MB) and
# of at most 125 in 3D P2 (4 MB).
KNORM_ROWS = 4096


# Chebyshev smoothing interval [lo, hi] of a V-cycle level. The error
# polynomial has magnitude < 1 on (0, hi + lo), so the smoother contracts
# in the K-norm (and the V-cycle stays SPD) while lambda_max(D^-1 K) <
# hi + lo = 1.21 x the estimate.
# Power steps: the Rayleigh quotient is below lambda_max, and after 16
# steps it was within 9% of it on every smoothed level of the benchmark
# hierarchies and of the tests', well inside the 21% margin. (12 steps
# left the 27-dof level of a 3D P2 Newton V-cycle, built on G from n0 = 1,
# 21.5% low.)
CHEBYSHEV_POWER_STEPS = 16
# hi = 1.1 x the estimate, the upper end of PETSc's default Chebyshev
# smoothing interval, (0.1, 1.1) x the estimate.
CHEBYSHEV_HI_FACTOR = 1.1
# lo = hi / 10: the polynomial damps the top 90% of the interval, which
# holds the oscillatory modes a twice-coarser grid cannot represent; about
# the lower end of the same PETSc default.
CHEBYSHEV_LO_RATIO = 10.0


def as_float32(a):
    """The sparse matrix a as float32 CSR on a's own index arrays: only
    the data is copied, and nothing if a is float32 CSR already."""
    a = a.tocsr()
    if a.dtype == np.float32:
        return a
    return sp.csr_matrix((a.data.astype(np.float32), a.indices, a.indptr),
                         shape=a.shape)


def _residual(k, b, x):
    """b - K x, in the fresh vector the matvec makes."""
    r = k @ x
    np.subtract(b, r, out=r)
    return r


@dataclass(frozen=True)
class ChebyshevSmoother:
    """Chebyshev iteration on K x = b preconditioned by D^-1, over the
    interval [lo, hi] of D^-1 K's spectrum (Saad, Iterative Methods for
    Sparse Linear Systems, Alg. 12.1). `degree` steps multiply the error
    by T_degree((theta - D^-1 K) / delta) / T_degree(theta / delta), with
    theta, delta the interval's centre and half-width: a polynomial in
    D^-1 K, self-adjoint in the K inner product."""

    dinv: np.ndarray
    lo: float
    hi: float

    @classmethod
    def for_matrix(cls, k):
        """Smoother for K: hi from a fixed-seed power estimate of
        lambda_max(D^-1 K), lo = hi / CHEBYSHEV_LO_RATIO. The diagonal
        check and the estimate run on K as given; D^-1 is then rounded to
        float32, the precision of the V-cycle it smooths in."""
        diag = k.diagonal()
        if not np.all(diag > 0.0):
            raise CoercivityError(
                "matrix has a nonpositive diagonal entry, so it is not "
                "positive definite"
            )
        dinv = 1.0 / diag
        v = np.random.default_rng(0).standard_normal(k.shape[0])
        for _ in range(CHEBYSHEV_POWER_STEPS):
            v = dinv * (k @ v)
            v /= np.linalg.norm(v)
        # Rayleigh quotient of the pencil (K, D): never above lambda_max
        estimate = float(v @ (k @ v)) / float(v @ (diag * v))
        hi = CHEBYSHEV_HI_FACTOR * estimate
        return cls(dinv.astype(np.float32), hi / CHEBYSHEV_LO_RATIO, hi)

    def smooth(self, k, b, degree, x=None):
        """x (zero if None, else updated in place) after `degree` Chebyshev
        steps: `degree` matvecs with K, one fewer from zero. Each matvec
        makes the one fresh vector of its step; the rest works in place."""
        theta, delta = 0.5 * (self.hi + self.lo), 0.5 * (self.hi - self.lo)
        sigma = theta / delta
        if x is None:
            d = self.dinv * b
            d /= theta
            x = d.copy()
        else:
            d = _residual(k, b, x)
            d *= self.dinv
            d /= theta
            x += d
        rho = 1.0 / sigma
        for _ in range(degree - 1):
            rho_next = 1.0 / (2.0 * sigma - rho)
            r = _residual(k, b, x)
            r *= self.dinv
            r *= 2.0 * rho_next / delta
            d *= rho_next * rho
            d += r
            x += d
            rho = rho_next
        return x


@dataclass
class SolverConfig:
    # the accepted values of `method` (config key solver.method)
    METHODS = ("auto", "direct", "mg_cg")

    method: str = "auto"
    rel_tol: float = 1e-10
    max_iter: int = 1000
    pre_smooth: int = 2
    post_smooth: int = 2

    def __post_init__(self):
        if self.method not in self.METHODS:
            raise ConfigurationError(
                f"solver.method must be one of {', '.join(self.METHODS)}, "
                f"got {self.method!r}"
            )
        if not 0.0 < self.rel_tol < 1.0:
            raise ConfigurationError("solver rel_tol must be in (0, 1)")
        for key in ("max_iter", "pre_smooth", "post_smooth"):
            value = getattr(self, key)
            if value < 1:
                raise ConfigurationError(
                    f"solver.{key} must be at least 1, got {value}"
                )


class VCycleHierarchy:
    """Nested interior operators K_1..K_L with prolongations between them.

    Each finer level is smoothed by a `ChebyshevSmoother`, set up once
    when the level joins: a polynomial of degree pre_smooth before coarse
    correction and of degree post_smooth after it (each >= 1), one matvec
    per degree, except that pre-smoothing starts from zero and saves one.
    Both apply the same interval, so with pre_smooth == post_smooth the
    V-cycle is symmetric up to float32 rounding and can precondition CG.

    The smoothed levels run in float32: each one's matrix and the
    prolongation into it are kept as float32 data on the given index
    arrays (`as_float32`, which keeps a float32 prolongation as it is, so
    hierarchies can share one), and so are D^-1 and the cycle's vectors.
    The matrices are given in float64 and rounded once, after the
    smoother's set-up. The coarsest level is factored in float64 by
    `factor_symmetric`. `apply` takes and returns float64, and a one-level
    hierarchy is the exact float64 LU solve.
    """

    def __init__(self, mats, prolongs, pre_smooth=2, post_smooth=2):
        if len(prolongs) != len(mats) - 1:
            raise ConfigurationError("need one prolongation per level pair")
        self.pre_smooth = pre_smooth
        self.post_smooth = post_smooth
        # level 0 is solved exactly; only the finer levels are smoothed
        self.mats = [mats[0].tocsr()]
        self.prolongs, self.restricts, self.smoothers = [], [], []
        self.coarse_lu = factor_symmetric(self.mats[0])
        for m, p in zip(mats[1:], prolongs):
            self._push(m, p)

    def _push(self, mat, prolong):
        try:
            smoother = ChebyshevSmoother.for_matrix(mat)
        except CoercivityError as err:
            raise CoercivityError(
                f"V-cycle level {len(self.mats) + 1} (1 is the coarsest), "
                f"{mat.shape[0]} interior dofs: {err}") from err
        self.smoothers.append(smoother)
        self.mats.append(as_float32(mat))
        prolong = as_float32(prolong)
        self.prolongs.append(prolong)
        self.restricts.append(prolong.T)  # a view: no copy of the data

    def refined(self, mat, prolong):
        """This hierarchy with one finer level K on top, prolong mapping
        the current finest level into it. The coarsest LU and every
        existing smoother are shared, not redone."""
        other = copy.copy(self)
        for name in ("mats", "prolongs", "restricts", "smoothers"):
            setattr(other, name, list(getattr(self, name)))
        other._push(mat, prolong)
        return other

    def apply(self, b):
        """One V-cycle on the finest level from zero initial guess, float64
        in and out; on one level, the coarsest LU solve."""
        b = np.asarray(b, dtype=float)
        if len(self.mats) == 1:
            return self.coarse_lu.solve(b)
        return self._cycle(len(self.mats) - 1,
                           b.astype(np.float32)).astype(float)

    def _cycle(self, lvl, b):
        if lvl == 0:
            return self.coarse_lu.solve(b.astype(float)).astype(np.float32)
        k, smoother = self.mats[lvl], self.smoothers[lvl - 1]
        x = smoother.smooth(k, b, self.pre_smooth)
        x += self.prolongs[lvl - 1] @ self._cycle(
            lvl - 1, self.restricts[lvl - 1] @ _residual(k, b, x))
        return smoother.smooth(k, b, self.post_smooth, x)


def pcg(matvec, b, precond, rel_tol, max_iter, border=None, x=None):
    """x with K x = b by CG preconditioned with precond (K applied by
    matvec), from zero, until the residual norm is at most rel_tol times
    the starting one. Returns x, its iteration count and the least
    curvature p'Kp/p'p over the search directions; p'Kp <= 0 raises
    CoercivityError. Each iteration applies precond once.

    With border = (m, t), PCG runs projected on {m'x = t} (Gould, Hribar &
    Nocedal, SIAM J. Sci. Comput. 23, 2001), solving K x = b + lambda m:
    from x (zero if None) moved onto that set along w = precond(m), not
    along m, whose P2 mass weights make it rough; with the residual
    projected onto m's complement every iteration, which keeps the float32
    V-cycle off its large m component; and with the preconditioned
    residual projected along w, so every search direction has m'p = 0.
    """
    if border is None:
        x = np.zeros_like(b)
        res = b.copy()
    else:
        m, t = border
        mm = float(m @ m)
        w = precond(m)
        mw = float(m @ w)
        x = (t / mw) * w if x is None else x + ((t - m @ x) / mw) * w
        res = matvec(x)
        np.subtract(b, res, out=res)
        res -= (float(m @ res) / mm) * m
    start = float(np.linalg.norm(res))
    curvature = np.inf
    for iteration in range(max_iter + 1):
        rnorm = float(np.linalg.norm(res))
        if rnorm <= rel_tol * start:
            return x, iteration, curvature
        if iteration == max_iter:
            break
        z = precond(res)
        if border is not None:
            z -= (float(m @ z) / mw) * w
        rho = float(res @ z)
        if iteration == 0:
            p = z
        else:
            p *= rho / rho_prev
            p += z
        del z
        q = matvec(p)
        pq = float(p @ q)
        if not pq > 0.0:
            raise CoercivityError(
                f"negative curvature p'Kp = {pq:.3e} at PCG iteration "
                f"{iteration + 1}: the operator is not positive definite"
                + ("" if border is None else " on the tangent space"))
        curvature = min(curvature, pq / float(p @ p))
        alpha = rho / pq
        x += alpha * p
        q *= alpha
        res -= q
        del q
        if border is not None:
            res -= (float(m @ res) / mm) * m
        rho_prev = rho
    raise SolverError(
        f"PCG failed to converge in {max_iter} iterations (relative "
        f"residual {rnorm / start:.3e})",
        achieved=rnorm / start,
    )


class SpdSolver:
    """Reusable solver for one SPD interior matrix K under a SolverConfig:
    a sparse LU, or `pcg` preconditioned by the V-cycle given (mg_cg;
    `auto` means mg_cg exactly when there is one)."""

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
        elif vcycle is None:
            raise ConfigurationError("mg_cg requires a V-cycle hierarchy")

    @property
    def knorm(self):
        """||K||_inf, computed once, KNORM_ROWS rows of |K| at a time."""
        if self._knorm is None:
            k, ptr = self.k, self.k.indptr
            self._knorm = 0.0
            for start in range(0, k.shape[0], KNORM_ROWS):
                stop = min(start + KNORM_ROWS, k.shape[0])
                rows = slice(ptr[start], ptr[stop])
                absk = sp.csr_matrix(
                    (np.abs(k.data[rows]), k.indices[rows],
                     ptr[start:stop + 1] - ptr[start]),
                    shape=(stop - start, k.shape[1]))
                self._knorm = max(self._knorm,
                                  float(absk.sum(axis=1).max()))
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
            x, iterations, _ = pcg(self.k.__matmul__, b, self.vcycle.apply,
                                   self.cfg.rel_tol * 0.1, self.cfg.max_iter)
            self.iteration_counts.append(iterations)
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
    """[[K, -m], [-m', 0]] @ [u1, lambda1] = [r, c] on interior dofs, with
    K = g - shift * mass (K = g without a mass): a Newton step keeps only
    g, SPD, which its V-cycle is built on. start is a guess for u1."""

    g: sp.spmatrix
    m: np.ndarray
    r: np.ndarray
    c: float
    mass: sp.spmatrix = None
    shift: float = 0.0
    start: np.ndarray = None

    @property
    def k(self):
        """K, formed on g's CSR pattern, which mass shares."""
        if self.mass is None:
            return self.g
        return sp.csr_matrix(
            (self.g.data - self.shift * self.mass.data, self.g.indices,
             self.g.indptr), shape=self.g.shape)

    def k_matvec(self, p):
        """K p, without forming K."""
        q = self.g @ p
        if self.mass is not None:
            mp = self.mass @ p
            mp *= self.shift
            q -= mp
        return q


@dataclass
class BorderedSolution:
    """(u1, lambda1) and the coercivity margin `schur`: the Schur scalar
    m'K^-1m on the direct path, the least p'Kp/p'p over the search
    directions on the projected path."""

    u: np.ndarray
    lam: float
    schur: float

    def __iter__(self):
        return iter((self.u, self.lam))


def solve_bordered(system, cfg=None, vcycle=None):
    """The bordered system's (u1, lambda1): given a V-cycle on g and a
    method but direct, one projected PCG solve (`pcg` with the border
    (m, -c)), then lambda1 = m'(K u1 - r)/(m'm); negative curvature
    certifies that K is not coercive on the tangent space. It stops at
    rel_tol/100 of its starting residual, where SpdSolver's CG stops at
    rel_tol/10 and then checks the backward error: the Euclidean residual
    is dominated by high frequencies that resi, an H^-1 norm, hardly sees
    (at rel_tol/10 the finest step of `p1_2d_mgcg` left resi at 2.9e-9,
    against 9.1e-10 solved exactly; at rel_tol/100, 9.4e-10).

    Otherwise the rank-1 Schur reduction by one sparse LU: y = K^-1 m,
    z = K^-1 r, lambda1 = -(c + m'z) / (m'y), u1 = z + lambda1 * y; a
    failed or inconsistent one (K singular at an exact eigenpair) falls
    back to `_solve_bordered_full`.
    """
    cfg = cfg or SolverConfig()
    m = system.m
    if np.linalg.norm(m) == 0.0:
        raise ConfigurationError("bordered system needs a nonzero border m")
    if vcycle is not None and cfg.method != "direct":
        u1, _, curvature = pcg(system.k_matvec, system.r, vcycle.apply,
                               cfg.rel_tol * 0.01, cfg.max_iter,
                               border=(m, -system.c), x=system.start)
        lam1 = float(m @ (system.k_matvec(u1) - system.r)) / float(m @ m)
        return BorderedSolution(u=u1, lam=lam1, schur=curvature)
    k = system.k
    solver = SpdSolver(k, cfg)
    try:
        y = solver.solve(m)
        z = solver.solve(system.r)
    except SolverError:
        # K itself may be (numerically) singular at an exact eigenpair;
        # the bordered matrix is still regular, so factor it whole
        return _solve_bordered_full(system, cfg)
    my = float(m @ y)
    lam1 = -(system.c + float(m @ z)) / my
    u1 = z + lam1 * y
    scale = (
        solver.knorm * float(np.linalg.norm(u1))
        + abs(lam1) * float(np.linalg.norm(m))
        + float(np.linalg.norm(system.r))
    )
    res1 = float(np.linalg.norm(k @ u1 - lam1 * m - system.r))
    res2 = abs(-float(m @ u1) - system.c)
    tol = cfg.rel_tol * 100.0
    if res1 <= tol * max(scale, 1e-30) and res2 <= tol * (1.0 + abs(system.c)):
        return BorderedSolution(u=u1, lam=lam1, schur=my)
    return _solve_bordered_full(system, cfg, schur=my)


def _solve_bordered_full(system, cfg, schur=0.0):
    """Sparse LU of the whole saddle-point matrix. Fallback for Newton
    matrices that are singular (exact eigenpair) or too ill-conditioned
    for the rank-1 Schur reduction."""
    n = system.m.size
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
