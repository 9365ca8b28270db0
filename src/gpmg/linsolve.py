"""Linear solvers: SPD interior systems and the rank-1 bordered system.

The Newton step's saddle-point system [[K, -m], [-m', 0]] is solved either
directly, by a refined rank-1 Schur reduction on one sparse LU of K, or
by one projected PCG solve on the tangent space {v : m'v = 0}, where K is
coercive near the ground state even when K itself is indefinite. An SPD
interior system (the H1 Riesz problem) is solved by the same PCG loop
without the constraint. PCG is preconditioned with a geometric V-cycle
whose smoother is a Chebyshev polynomial in D^-1 A (A the V-cycle's
matrix, D its diagonal), so smoothing costs matvecs only.

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
    "inf_norm",
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


# Rows of |K| per block of `inf_norm`: a block's one temporary
# of note is its |data|, 4,096 rows of 7 entries in 2D P1 (0.2 MB) and
# of at most 125 in 3D P2 (4 MB).
KNORM_ROWS = 4096


def inf_norm(a):
    """||A||_inf, the largest row sum of |A|, KNORM_ROWS rows at a time."""
    a = a.tocsr()
    ptr, norm = a.indptr, 0.0
    for start in range(0, a.shape[0], KNORM_ROWS):
        stop = min(start + KNORM_ROWS, a.shape[0])
        rows = slice(ptr[start], ptr[stop])
        absa = sp.csr_matrix(
            (np.abs(a.data[rows]), a.indices[rows],
             ptr[start:stop + 1] - ptr[start]),
            shape=(stop - start, a.shape[1]))
        norm = max(norm, float(absa.sum(axis=1).max()))
    return norm


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
# Chebyshev degree of the pre- and of the post-smoothing step: one value
# for both keeps the V-cycle symmetric. Degrees 1 and 3 measured no faster
# than 2 per PCG solve on the benchmark workloads.
CHEBYSHEV_DEGREE = 2


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

    def __post_init__(self):
        if self.method not in self.METHODS:
            raise ConfigurationError(
                f"solver.method must be one of {', '.join(self.METHODS)}, "
                f"got {self.method!r}"
            )
        if not 0.0 < self.rel_tol < 1.0:
            raise ConfigurationError("solver.rel_tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ConfigurationError(
                f"solver.max_iter must be at least 1, got {self.max_iter}"
            )


class VCycleHierarchy:
    """Nested interior operators K_1..K_L with prolongations between them.

    Each finer level is smoothed by a `ChebyshevSmoother`, set up once
    when the level joins: a polynomial of degree CHEBYSHEV_DEGREE before
    coarse correction and the same one after it, one matvec per degree,
    except that pre-smoothing starts from zero and saves one. So the
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

    def __init__(self, mats, prolongs):
        if len(prolongs) != len(mats) - 1:
            raise ConfigurationError("need one prolongation per level pair")
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
        x = smoother.smooth(k, b, CHEBYSHEV_DEGREE)
        x += self.prolongs[lvl - 1] @ self._cycle(
            lvl - 1, self.restricts[lvl - 1] @ _residual(k, b, x))
        return smoother.smooth(k, b, CHEBYSHEV_DEGREE, x)


# Iterations without a new least residual norm after which `pcg` stops.
# PCG's residual norm need not fall every iteration. Under a V-cycle, in
# every converging solve of the tier-1 tests, the three benchmark
# workloads and the coupling sweep, it set a new least within 1 iteration;
# in a 1D P2 Newton step converging near its round-off floor (16,383
# interior dofs, 1e-12 relative) within 15. 50 is over three times that.
# The next level's step (32,767 dofs) stalls: it took 1,000 iterations to
# reach 8.3e-10 against 1e-12, and now stops at iteration 259 at 9.8e-10.
# Unpreconditioned CG on an ill-conditioned matrix can go longer than 50
# iterations without a new least and still converge; gpmg runs none.
PCG_STALL_ITERATIONS = 50


def pcg(matvec, b, precond, rel_tol, max_iter, border=None, x=None):
    """x with K x = b by CG preconditioned with precond (K applied by
    matvec), from zero, until the residual norm is at most rel_tol times
    the starting one. Returns x, its iteration count and the least
    curvature p'Kp/p'p over the search directions; p'Kp <= 0 raises
    CoercivityError. Each iteration applies precond once. A residual
    that reaches no new least norm in PCG_STALL_ITERATIONS iterations
    raises SolverError: the solve has met its round-off floor.

    That exit assumes a precond under which the residual sets a new least
    at least every PCG_STALL_ITERATIONS iterations, as gpmg's V-cycles
    do. Under one that leaves the spectrum as it is, CG's residual norm
    can rise for longer and still converge: on the 1D Laplacian with 200
    unknowns and a standard normal b, precond = r / 2 in float32 raises
    at iteration 57 at relative residual 0.34, in a solve that
    unpreconditioned CG finishes in 200 iterations.

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
    least, least_at = np.inf, 0
    for iteration in range(max_iter + 1):
        rnorm = float(np.linalg.norm(res))
        if rnorm <= rel_tol * start:
            return x, iteration, curvature
        if iteration == max_iter:
            break
        if rnorm < least:
            least, least_at = rnorm, iteration
        elif iteration - least_at >= PCG_STALL_ITERATIONS:
            raise SolverError(
                f"PCG stagnated at relative residual {least / start:.3e}: "
                f"no new least residual in {PCG_STALL_ITERATIONS} "
                f"iterations (iteration {iteration})",
                achieved=least / start,
            )
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
    `pcg` preconditioned by the given V-cycle, to a relative residual of
    rel_tol/10, then a backward-error check at rel_tol."""

    # the one method; kept because perfbench's tracer reads it per solver
    method = "mg_cg"

    def __init__(self, k, cfg, vcycle):
        self.k = k.tocsr()
        self.cfg = cfg
        self.vcycle = vcycle
        self.iteration_counts = []
        self.knorm = inf_norm(self.k)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        bnorm = float(np.linalg.norm(b))
        if bnorm == 0.0:
            return np.zeros_like(b)
        x, iterations, _ = pcg(self.k.__matmul__, b, self.vcycle.apply,
                               self.cfg.rel_tol * 0.1, self.cfg.max_iter)
        self.iteration_counts.append(iterations)
        # ||Kx - b|| / (||K|| ||x|| + ||b||): unlike the plain relative
        # residual this stays near eps for a stable solve even when ||x||
        # >> ||b||
        achieved = float(np.linalg.norm(self.k @ x - b)) / (
            self.knorm * float(np.linalg.norm(x)) + bnorm)
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


def solve_bordered(system, cfg=None, vcycle=None):
    """The bordered system's (u1, lambda1): given a V-cycle on g, one
    projected PCG solve (`pcg` with the border (m, -c)), then lambda1 =
    m'(K u1 - r)/(m'm); negative curvature certifies that K is not coercive
    on the tangent space. It stops at rel_tol/100 of its starting residual,
    where SpdSolver's CG stops at rel_tol/10 and then checks the backward
    error: the Euclidean residual is dominated by high frequencies that
    resi, an H^-1 norm, hardly sees (at rel_tol/10 the finest step of
    `p1_2d_mgcg` left resi at 2.9e-9, against 9.1e-10 solved exactly; at
    rel_tol/100, 9.4e-10).

    Otherwise the rank-1 Schur reduction on one LU of K, y = K^-1 m, from
    zero and refined on the bordered residual (r_u, r_c), which recovers
    what the cancellation in z + d y loses when K is nearly singular
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 12): each
    step adds (z + d y, d) to (u1, lambda1), z = K^-1 r_u, d = -(r_c +
    m'z)/(m'y), until the bordered backward error ||(r_u, r_c)|| /
    (||K||_inf ||u1|| + |lambda1| ||m|| + ||r|| + |c|) is at most rel_tol.
    A K that does not factor, or four steps short of that, fall back to
    `_solve_bordered_full`.
    """
    cfg = cfg or SolverConfig()
    m = system.m
    if np.linalg.norm(m) == 0.0:
        raise ConfigurationError("bordered system needs a nonzero border m")
    if vcycle is not None:
        u1, _, curvature = pcg(system.k_matvec, system.r, vcycle.apply,
                               cfg.rel_tol * 0.01, cfg.max_iter,
                               border=(m, -system.c), x=system.start)
        lam1 = float(m @ (system.k_matvec(u1) - system.r)) / float(m @ m)
        return BorderedSolution(u=u1, lam=lam1, schur=curvature)
    k = system.k
    try:
        lu = factor_symmetric(k)
    except RuntimeError:
        # K singular (at an exact eigenpair); the bordered matrix is still
        # regular, so factor it whole
        return _solve_bordered_full(system, cfg)
    y = lu.solve(m)
    my = float(m @ y)
    knorm, mnorm = inf_norm(k), float(np.linalg.norm(m))
    data_norm = float(np.linalg.norm(system.r)) + abs(system.c)
    u1, lam1 = np.zeros_like(m), 0.0
    res_u, res_c = system.r, system.c
    for _ in range(4):
        z = lu.solve(res_u)
        step = -(res_c + float(m @ z)) / my
        z += step * y
        u1 += z
        lam1 += step
        res_u = system.r - (k @ u1 - lam1 * m)
        res_c = system.c + float(m @ u1)
        if float(np.hypot(np.linalg.norm(res_u), res_c)) <= cfg.rel_tol * (
                knorm * float(np.linalg.norm(u1)) + abs(lam1) * mnorm
                + data_norm):
            return BorderedSolution(u=u1, lam=lam1, schur=my)
    return _solve_bordered_full(system, cfg, schur=my)


def _solve_bordered_full(system, cfg, schur=0.0):
    """Sparse LU of the whole saddle-point matrix. Fallback for a K that
    is singular (exact eigenpair) or too ill-conditioned for the refined
    Schur reduction. Only a fallback: with the dense border, its ordering
    and LU cost several times those of K alone."""
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
    if res > cfg.rel_tol * 100.0 * (inf_norm(full) * np.linalg.norm(x)
                                    + np.linalg.norm(rhs)):
        raise SolverError(
            f"full bordered solve residual {res:.3e} above tolerance"
        )
    return BorderedSolution(u=x[:n], lam=float(x[n]), schur=schur)
