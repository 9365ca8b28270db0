from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.polynomial import Chebyshev, Polynomial

from gpmg.assembly import (
    RIESZ_TOL,
    FemSpace,
    Operators,
    _interior_prolongation,
    assemble_mass,
    assemble_stiffness,
)
from gpmg.eigsolve import scf_solve
from gpmg.errors import CoercivityError, ConfigurationError, SolverError
from gpmg.expr import parse
import gpmg.linsolve as linsolve_mod
from gpmg.linsolve import (
    BorderedSystem,
    SolverConfig,
    SpdSolver,
    VCycleHierarchy,
    factor_symmetric,
    solve_bordered,
)
from gpmg.mesh import BoxDomain, build_hierarchy, build_initial_mesh
import gpmg.newton as newton_mod
from gpmg.newton import (
    _build_vcycle,
    _prolong_iterate,
    assemble_newton_system,
    build_contexts,
    multigrid_newton,
    newton_step,
)
from gpmg.nonlinearity import Nonlinearity
from gpmg.state import IterateX


def poisson_hierarchy(n0=4, levels=3, dim=2):
    from gpmg.assembly import prolongation_matrix

    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, levels)
    spaces = [FemSpace(m, 1) for m in hier.levels]
    mats, prolongs = [], []
    for i, space in enumerate(spaces):
        mats.append(assemble_stiffness(space))
        if i > 0:
            p = prolongation_matrix(spaces[i - 1], space)
            prolongs.append(p[space.interior_dofs][
                :, spaces[i - 1].interior_dofs].tocsr())
    return mats, prolongs


def test_direct_and_mg_cg_agree():
    mats, prolongs = poisson_hierarchy()
    k = mats[-1]
    rng = np.random.default_rng(0)
    b = rng.standard_normal(k.shape[0])
    x_dir = factor_symmetric(k).solve(b)
    vc = VCycleHierarchy(mats, prolongs)
    mg = SpdSolver(k, SolverConfig(method="mg_cg"), vcycle=vc)
    x_mg = mg.solve(b)
    assert np.allclose(x_dir, x_mg, atol=1e-8)
    # the one ||K||_inf that solve_bordered also scales its check by
    assert mg.knorm == linsolve_mod.inf_norm(k)
    assert mg.knorm == float(abs(k).sum(axis=1).max())


def test_vcycle_contracts_error():
    mats, prolongs = poisson_hierarchy(levels=4)
    vc = VCycleHierarchy(mats, prolongs)
    k = mats[-1]
    rng = np.random.default_rng(1)
    x_star = rng.standard_normal(k.shape[0])
    b = k @ x_star
    x = np.zeros_like(b)
    errs = []
    for _ in range(4):
        x = x + vc.apply(b - k @ x)
        errs.append(np.linalg.norm(x - x_star))
    rates = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    assert max(rates) < 0.25  # textbook V-cycle contraction


def test_mg_cg_requires_hierarchy():
    # a Newton step on a single level has no coarser one for the V-cycle
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 1)
    ctx, = build_contexts(hier, 1, Nonlinearity(zeta=1.0))
    with pytest.raises(ConfigurationError,
                       match="mg_cg requires a V-cycle hierarchy"):
        newton_step([ctx], scf_solve(ctx), SolverConfig(method="mg_cg"))


def _record_bordered_solves(monkeypatch):
    """A list that fills, one entry per Newton step, with the interior dof
    count of the step's level and whether it was given a V-cycle."""
    seen = []
    solve = newton_mod.solve_bordered

    def recording(system, cfg, vcycle=None):
        seen.append((system.m.size, vcycle is not None))
        return solve(system, cfg, vcycle=vcycle)

    monkeypatch.setattr(newton_mod, "solve_bordered", recording)
    return seen


@pytest.mark.parametrize("dim,degree,n0", [
    (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 2, 1),
], ids=["2d_p1", "2d_p2", "3d_p1", "3d_p2"])
def test_auto_runs_mg_cg_on_every_linked_level(monkeypatch, dim, degree, n0):
    # `auto` in 2D and 3D: the coarse solve's steps run direct, and the
    # step on every finer level runs projected mg_cg, however few its dofs
    # (level 2 of 3D P2 has 27); `direct` runs every step direct
    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, 3)
    potential = parse(" + ".join(f"{2**i}*x{i + 1}^2" for i in range(dim)),
                      dim)
    seen = _record_bordered_solves(monkeypatch)
    runs = {}
    for method in ("auto", "direct"):
        seen.clear()
        ctxs = build_contexts(hier, degree, Nonlinearity(zeta=1.0),
                              potential=potential)
        _, trace = multigrid_newton(ctxs,
                                    solver_cfg=SolverConfig(method=method))
        runs[method] = [r.lam for r in trace]
        sizes = [ops.space.interior_dofs.size for ops in ctxs]
        linked = [(n, method == "auto") for n in sizes[1:]]
        assert seen[-2:] == linked
        assert all(n == sizes[0] and not mg for n, mg in seen[:-2])
    assert runs["auto"] == pytest.approx(runs["direct"], rel=1e-6)


@pytest.mark.parametrize("degree", [1, 2])
def test_auto_never_picks_mg_cg_in_1d(monkeypatch, degree):
    # 1D stays direct under `auto` on every level (`newton._runs_mg_cg`
    # says why); `mg_cg` still runs the projected solve on linked levels,
    # to the same eigenvalues up to the inexact steps' tolerance
    hier = build_hierarchy(BoxDomain.unit(1), (4,), 4)
    seen = _record_bordered_solves(monkeypatch)
    runs = {}
    for method in ("auto", "mg_cg"):
        seen.clear()
        ctxs = build_contexts(hier, degree, Nonlinearity(zeta=1.0),
                              potential=parse("x1^2", 1))
        _, trace = multigrid_newton(ctxs,
                                    solver_cfg=SolverConfig(method=method))
        runs[method] = [r.lam for r in trace]
        linked = [(ops.space.interior_dofs.size, method == "mg_cg")
                  for ops in ctxs[1:]]
        assert seen[-3:] == linked
        assert not any(mg for _, mg in seen[:-3])
    assert runs["mg_cg"] == pytest.approx(runs["auto"], rel=1e-6)


# the ids are the level-2 dof crossovers these cases patched when `auto`
# switched to mg_cg by dof count; level 2 of 2D P1 from 4x4 cells has 49
@pytest.mark.parametrize("linked,method", [
    pytest.param(True, "mg_cg", id="48-mg_cg"),
    pytest.param(False, "direct", id="49-direct"),
])
def test_newton_step_solves_with_the_method_auto_resolves(monkeypatch, linked,
                                                          method):
    # under `auto`, a step with a coarser level runs one projected PCG
    # solve on the V-cycle of its G and factors only the V-cycle's coarsest
    # level; a step on one level factors K once and runs no PCG
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 2)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0))
    x0 = _prolong_iterate(scf_solve(ctxs[0]), ctxs[0].space, ctxs[1].space)
    solvers, borders, vcycles, factors = [], [], [], []
    init, pcg, solve, factor = (SpdSolver.__init__, linsolve_mod.pcg,
                                newton_mod.solve_bordered,
                                linsolve_mod.factor_symmetric)

    def recording_init(self, k, cfg, vcycle=None):
        init(self, k, cfg, vcycle)
        solvers.append(self.method)

    def recording_pcg(*args, border=None, **kwargs):
        borders.append(border is not None)
        return pcg(*args, border=border, **kwargs)

    def recording_solve(system, cfg, vcycle=None):
        vcycles.append((system, vcycle))
        return solve(system, cfg, vcycle=vcycle)

    def recording_factor(a):
        factors.append(a.shape)
        return factor(a)

    monkeypatch.setattr(SpdSolver, "__init__", recording_init)
    monkeypatch.setattr(linsolve_mod, "pcg", recording_pcg)
    monkeypatch.setattr(newton_mod, "solve_bordered", recording_solve)
    monkeypatch.setattr(linsolve_mod, "factor_symmetric", recording_factor)
    newton_step(ctxs if linked else ctxs[1:], x0)
    (system, vc), = vcycles
    assert solvers == []
    if method == "mg_cg":
        assert borders == [True]
        assert factors == [vc.mats[0].shape] != [system.k.shape]
        assert np.array_equal(vc.mats[-1].data,
                              system.g.data.astype(np.float32))
    else:
        assert (borders, factors) == ([], [system.k.shape])
        assert vc is None


def test_cg_failure_reports_achieved_residual():
    mats, prolongs = poisson_hierarchy(levels=3)
    k = mats[-1]
    b = np.ones(k.shape[0])
    vc = VCycleHierarchy(mats, prolongs)
    with pytest.raises(SolverError) as exc:
        SpdSolver(k, SolverConfig(method="mg_cg", max_iter=1), vc).solve(b)
    assert exc.value.achieved is not None


def test_pcg_stops_when_its_residual_stagnates():
    # a preconditioner with an absolute error of 1e-10, whatever its
    # input: PCG's residual stalls near 1e-10 of its start, far above the
    # 1e-30 asked, and the solve stops PCG_STALL_ITERATIONS after its last
    # new least residual instead of spending max_iter
    n = 100
    k = sp.diags([-np.ones(n - 1), 2.0001 * np.ones(n), -np.ones(n - 1)],
                 [-1, 0, 1]).tocsr()
    b = np.random.default_rng(1).standard_normal(n)
    lu = factor_symmetric(k)
    noise = np.random.default_rng(2)
    matvecs = []

    def matvec(v):
        matvecs.append(1)
        return k @ v

    def precond(r):
        return lu.solve(r) + 1e-10 * noise.standard_normal(n)

    with pytest.raises(SolverError, match="stagnated at relative residual "
                       r"\d\.\d{3}e-1\d") as exc:
        linsolve_mod.pcg(matvec, b, precond, 1e-30, 5000)
    assert 1e-12 < exc.value.achieved < 1e-8
    assert len(matvecs) < 4 * linsolve_mod.PCG_STALL_ITERATIONS
    # above the floor the same solve converges
    x, _, _ = linsolve_mod.pcg(k.__matmul__, b, precond, 1e-8, 5000)
    assert np.linalg.norm(b - k @ x) <= 1e-8 * np.linalg.norm(b)


def random_bordered(rng, n):
    a = rng.standard_normal((n, n))
    k = sp.csr_matrix(a @ a.T + n * np.eye(n))
    m = rng.standard_normal(n)
    r = rng.standard_normal(n)
    c = rng.standard_normal()
    return BorderedSystem(g=k, m=m, r=r, c=c)


def test_bordered_matches_dense_full_system():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 51))
        system = random_bordered(rng, n)
        sol = solve_bordered(system)
        full = np.zeros((n + 1, n + 1))
        full[:n, :n] = system.k.toarray()
        full[:n, n] = -system.m
        full[n, :n] = -system.m
        rhs = np.concatenate([system.r, [system.c]])
        dense = np.linalg.solve(full, rhs)
        worst = max(worst, np.max(np.abs(sol.u - dense[:n])),
                    abs(sol.lam - dense[n]))
    assert worst <= 1e-8


def test_bordered_solution_unpacks():
    rng = np.random.default_rng(3)
    system = random_bordered(rng, 10)
    sol = solve_bordered(system)
    assert sol.u.shape == (10,)
    assert np.isscalar(sol.lam) or np.ndim(sol.lam) == 0


def test_bordered_rejects_zero_border():
    rng = np.random.default_rng(4)
    system = random_bordered(rng, 6)
    system = BorderedSystem(g=system.g, m=np.zeros(6), r=system.r, c=system.c)
    with pytest.raises(ConfigurationError):
        solve_bordered(system)


def test_projected_pcg_solves_an_indefinite_k_coercive_on_the_tangent_space():
    # K has a negative eigenvalue whose eigenvector is m: the Schur scalar
    # m'K^-1m is negative, but on {v : m'v = 0} K is positive definite, so
    # projected PCG (on the exact one-level V-cycle of G = K + 2 I) solves
    # the bordered system, matching the direct path, which keeps its
    # negative Schur scalar
    d = np.array([-1.0, 2.0, 3.0, 4.0])
    m = np.array([1.0, 0.0, 0.0, 0.0])
    g = sp.csr_matrix(np.diag(d + 2.0))
    system = BorderedSystem(g=g, m=m, r=np.ones(4), c=0.5,
                            mass=sp.identity(4, format="csr"), shift=2.0)
    direct = solve_bordered(system, SolverConfig(method="direct"))
    assert direct.schur < 0
    sol = solve_bordered(system, SolverConfig(method="mg_cg"),
                         vcycle=VCycleHierarchy([g], []))
    # the least p'Kp/p'p, at least K's least eigenvalue on the tangent
    assert 2.0 <= sol.schur <= 4.0
    assert np.allclose(sol.u, direct.u, atol=1e-12)
    assert sol.lam == pytest.approx(direct.lam, abs=1e-12)
    assert np.allclose(np.diag(d) @ sol.u - sol.lam * m, np.ones(4),
                       atol=1e-12)
    assert m @ sol.u == pytest.approx(-0.5)


def test_indefinite_matrix_coercivity_error_on_iterative_path():
    # the same K with m the eigenvector of eigenvalue 2: the negative
    # eigenvector e1 now lies in the tangent space, K is not coercive
    # there, and the first search direction already has p'Kp < 0
    d = np.array([-1.0, 2.0, 3.0, 4.0])
    g = sp.csr_matrix(np.diag(d + 2.0))
    system = BorderedSystem(g=g, m=np.array([0.0, 1.0, 0.0, 0.0]),
                            r=np.ones(4), c=0.5,
                            mass=sp.identity(4, format="csr"), shift=2.0)
    with pytest.raises(CoercivityError, match=(
            r"^negative curvature p'Kp = -\S+ at PCG iteration 1: the "
            r"operator is not positive definite on the tangent space$")):
        solve_bordered(system, SolverConfig(method="mg_cg"),
                       vcycle=VCycleHierarchy([g], []))
    # the direct path still produces the verified saddle-point solution
    sol = solve_bordered(system, SolverConfig(method="direct"))
    assert np.allclose(np.diag(d) @ sol.u - sol.lam * system.m, np.ones(4),
                       atol=1e-10)


def dense_bordered(system):
    """(u1, lambda1) of the system by a dense solve of the full matrix."""
    k = system.k.toarray()
    n = k.shape[0]
    full = np.zeros((n + 1, n + 1))
    full[:n, :n] = k
    full[:n, n] = full[n, :n] = -system.m
    x = np.linalg.solve(full, np.concatenate([system.r, [system.c]]))
    return x[:n], x[n]


@pytest.mark.parametrize("zeta", [0.0, 1.0])
@pytest.mark.parametrize("dim,degree,n0", [
    (1, 1, 4), (1, 2, 4), (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 2, 1),
], ids=["1d_p1", "1d_p2", "2d_p1", "2d_p2", "3d_p1", "3d_p2"])
def test_projected_pcg_matches_the_dense_bordered_solve(dim, degree, n0,
                                                        zeta):
    # the Newton system on level 3 at level 2's ground state, prolongated;
    # its lambda0 lies above level 3's ground state (min-max on nested
    # spaces), so at zeta = 0 K has a negative eigenvalue (two K-solves
    # cannot be PCG there), yet projected PCG on the V-cycle of G matches
    # the dense solve of the whole bordered matrix
    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, 3)
    potential = " + ".join(f"{2**i}*x{i + 1}^2" for i in range(dim))
    ctxs = build_contexts(hier, degree, Nonlinearity(zeta=zeta),
                          potential=parse(potential, dim))
    x = _prolong_iterate(scf_solve(ctxs[1]), ctxs[1].space, ctxs[2].space)
    system = assemble_newton_system(ctxs[2], x)
    if zeta == 0.0:
        assert np.linalg.eigvalsh(system.k.toarray())[0] < 0.0
    sol = solve_bordered(system, SolverConfig(method="mg_cg"),
                         vcycle=_build_vcycle(ctxs, system.g))
    u, lam = dense_bordered(system)
    assert np.linalg.norm(sol.u - u) <= 1e-9 * np.linalg.norm(u)
    assert abs(sol.lam - lam) <= 1e-10 * abs(lam)
    assert sol.schur > 0.0


def test_near_singular_bordered_solve_meets_rel_tol_without_the_full_lu(
        monkeypatch):
    # K = A - lam M with lam 1e-7 above the least eigenvalue of (A, M) and
    # the border m = M v1 along its eigenvector: the Schur reduction's
    # u1 = z + lambda1 y cancels, and the refinement on the bordered
    # residual brings its backward error to rel_tol on K's own LU
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (32,)), 1)
    a, mass = assemble_stiffness(space), assemble_mass(space)
    vals, vecs = sla.eigh(a.toarray(), mass.toarray())
    k = (a - (vals[0] * (1 + 1e-7)) * mass).tocsr()
    system = BorderedSystem(g=k, m=mass @ vecs[:, 0],
                            r=np.ones(k.shape[0]), c=0.3)
    full = linsolve_mod._solve_bordered_full
    fallbacks = []

    def recording_full(*args, **kwargs):
        fallbacks.append(args)
        return full(*args, **kwargs)

    monkeypatch.setattr(linsolve_mod, "_solve_bordered_full", recording_full)
    cfg = SolverConfig(method="direct")
    sol = solve_bordered(system, cfg)
    u, lam = sol.u, sol.lam
    res = np.hypot(np.linalg.norm(k @ u - lam * system.m - system.r),
                   system.m @ u + system.c)
    scale = (float(abs(k).sum(axis=1).max()) * np.linalg.norm(u)
             + abs(lam) * np.linalg.norm(system.m)
             + np.linalg.norm(system.r) + abs(system.c))
    assert res <= cfg.rel_tol * scale
    assert fallbacks == []


# float32 unit roundoff, the precision of a V-cycle's smoothed levels
U32 = 2.0**-24
# What a correct V-cycle may differ by from the same cycle in exact
# arithmetic on its float32-rounded operators (relative to the result), or
# from its own transpose (relative to its largest entry): a worst case of
# one U32 per float32 rounding, summed linearly over the about 10^2
# roundings an entry passes through in one cycle of the hierarchies below
# (4 levels x 2 smoothings x 3 steps x ~5 operations), rounded up to 2^7.
VCYCLE_ROUNDING = 2**7 * U32


def newton_hierarchy(dim=2, degree=1, n0=4, levels=3):
    """The SPD matrices G of a Newton step's V-cycle, 2D P1 (zeta = 1;
    other dimensions and degrees on request), at an iterate one Newton
    step into level 2, prolongated to the finest level, with the float64
    interior prolongations: the finest G and the float64 Galerkin products
    P' G P below it, the operators `_build_vcycle` hands its hierarchy."""
    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, levels)
    potential = " + ".join(f"{2**i}*x{i + 1}^2" for i in range(dim))
    ctxs = build_contexts(hier, degree, Nonlinearity(zeta=1.0),
                          potential=parse(potential, dim))
    x = _prolong_iterate(scf_solve(ctxs[0]), ctxs[0].space, ctxs[1].space)
    x = newton_step(ctxs[:2], x)
    for coarse, fine in zip(ctxs[1:], ctxs[2:]):
        x = _prolong_iterate(x, coarse.space, fine.space)
    prolongs = [_interior_prolongation(coarse.space, fine.space)
                for coarse, fine in zip(ctxs, ctxs[1:])]
    mats = [assemble_newton_system(ctxs[-1], x).g]
    for p in reversed(prolongs):
        mats.insert(0, (p.T @ (mats[0] @ p)).tocsr())
    return mats, prolongs


def h1_hierarchy(dim, degree, n0, levels):
    """Interior H1 matrices of each level and the float64 interior
    prolongations: the operators of the finest level's Riesz V-cycle."""
    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, levels)
    ctxs = build_contexts(hier, degree, Nonlinearity(zeta=1.0))
    mats = [ops.h1 for ops in ctxs]
    prolongs = [_interior_prolongation(coarse.space, fine.space)
                for coarse, fine in zip(ctxs, ctxs[1:])]
    return mats, prolongs


def rounded(mat):
    """mat's float32 rounding, back in float64."""
    return mat.astype(np.float32).astype(float)


def chebyshev_step_polynomial(lo, hi, degree):
    """q with q(t) t = 1 - T_degree((theta - t)/delta) / T_degree(theta/delta)
    in monomial form: x += q(D^-1 K) D^-1 (b - K x) is one smoothing step."""
    theta, delta = 0.5 * (hi + lo), 0.5 * (hi - lo)
    cheb = Chebyshev.basis(degree).convert(kind=Polynomial)
    error = cheb(Polynomial([theta / delta, -1.0 / delta])) / cheb(theta / delta)
    q, rem = divmod(1 - error, Polynomial([0.0, 1.0]))
    assert np.allclose(rem.coef, 0.0, atol=1e-14)
    return q


def reference_vcycle(mats, prolongs, intervals, b,
                     degree=linsolve_mod.CHEBYSHEV_DEGREE):
    """The V-cycle with each level's Chebyshev polynomial of `degree`,
    before and after coarse correction, evaluated by Horner's rule on the
    dense D^-1 K, and a dense coarse solve; intervals holds (lo, hi) per
    smoothed level."""
    def smooth(k, interval, degree, b, x):
        a = k / np.diag(k)[:, None]
        v = (b - k @ x) / np.diag(k)
        coef = chebyshev_step_polynomial(*interval, degree).coef
        y = coef[-1] * v
        for c in coef[-2::-1]:
            y = a @ y + c * v
        return x + y

    def cycle(lvl, b):
        k = mats[lvl].toarray()
        if lvl == 0:
            return np.linalg.solve(k, b)
        x = smooth(k, intervals[lvl - 1], degree, b, np.zeros_like(b))
        p = prolongs[lvl - 1]
        x += p @ cycle(lvl - 1, p.T @ (b - k @ x))
        return smooth(k, intervals[lvl - 1], degree, b, x)

    return cycle(len(mats) - 1, b)


def vcycle_asymmetry(vc, rng):
    x, y = rng.standard_normal((2, vc.mats[-1].shape[0]))
    vx, vy = vc.apply(x), vc.apply(y)
    return abs(y @ vx - x @ vy) / (np.linalg.norm(y) * np.linalg.norm(vx))


@pytest.mark.parametrize("degree", [1, 2, 3], ids=lambda n: f"{n}x{n}")
@pytest.mark.parametrize("build", [
    lambda: poisson_hierarchy(levels=4),
    newton_hierarchy,
], ids=["poisson", "newton"])
def test_vcycle_matches_dense_chebyshev_reference(monkeypatch, build,
                                                  degree):
    # pre-smoothing skips the matvec with the zero start: an off-by-one in
    # the number of steps shows at every degree. The reference runs in
    # float64 on the operators the float32 cycle holds: the smoothed
    # levels' matrices and the prolongations rounded to float32, the
    # coarsest matrix as given
    monkeypatch.setattr(linsolve_mod, "CHEBYSHEV_DEGREE", degree)
    mats, prolongs = build()
    vc = VCycleHierarchy(mats, prolongs)
    intervals = [(s.lo, s.hi) for s in vc.smoothers]
    assert len(intervals) == len(mats) - 1
    held = [mats[0], *map(rounded, mats[1:])]
    rng = np.random.default_rng(5)
    for _ in range(3):
        b = rng.standard_normal(mats[-1].shape[0])
        ref = reference_vcycle(held, list(map(rounded, prolongs)),
                               intervals, b, degree)
        got = vc.apply(b)
        assert got.dtype == np.float64
        assert np.linalg.norm(got - ref) <= VCYCLE_ROUNDING * np.linalg.norm(
            ref)
    # CG needs a symmetric preconditioner
    assert vcycle_asymmetry(vc, rng) <= VCYCLE_ROUNDING


@pytest.mark.parametrize("dim,degree,n0,levels", [
    (2, 1, 4, 3), (2, 2, 2, 3), (3, 1, 3, 3), (3, 2, 1, 3),
], ids=["2d_p1", "2d_p2", "3d_p1", "3d_p2"])
@pytest.mark.parametrize("kind", ["h1", "newton"])
def test_chebyshev_interval_covers_the_spectrum(dim, degree, n0, levels,
                                                kind):
    # the smoother contracts in the K-norm only while lambda_max(D^-1 K)
    # < hi + lo; the V-cycle is then an SPD preconditioner, symmetric up to
    # its float32 rounding (pre = 2, post = 3 makes it ~1e-2 asymmetric)
    build = newton_hierarchy if kind == "newton" else h1_hierarchy
    mats, prolongs = build(dim, degree, n0, levels)
    vc = VCycleHierarchy(mats, prolongs)
    for k, smoother in zip(mats[1:], vc.smoothers):
        d = k.diagonal()
        scaled = k.toarray() / np.sqrt(np.outer(d, d))
        lam_max = sla.eigvalsh(scaled)[-1]
        assert lam_max < smoother.hi + smoother.lo
        assert smoother.lo == smoother.hi / 10
    n = mats[-1].shape[0]
    b_mat = np.column_stack([vc.apply(e) for e in np.eye(n)])
    assert (np.abs(b_mat - b_mat.T).max()
            <= VCYCLE_ROUNDING * np.abs(b_mat).max())
    assert sla.eigvalsh(0.5 * (b_mat + b_mat.T))[0] > 0.0


def cg_iterations(k, b, rtol, apply):
    """PCG iterations of scipy's cg on K x = b from zero, to rtol, with
    the preconditioner apply."""
    count = [0]

    def _cb(_):
        count[0] += 1

    precond = spla.LinearOperator(k.shape, matvec=apply, dtype=float)
    _, info = spla.cg(k, b, rtol=rtol, atol=0.0, M=precond, callback=_cb)
    assert info == 0
    return count[0]


@pytest.mark.parametrize("dim,degree,n0,levels", [
    (2, 1, 4, 4), (3, 2, 1, 3),
], ids=["2d_p1", "3d_p2"])
@pytest.mark.parametrize("kind", ["riesz", "newton"])
def test_float32_vcycle_takes_the_pcg_iterations_of_float64(dim, degree,
                                                            n0, levels,
                                                            kind):
    # the cycle preconditions as well as the same cycle run in float64 (the
    # dense reference on the float64 operators): SpdSolver's PCG, to the
    # Riesz or the Newton tolerance, takes as many iterations with either
    if kind == "newton":
        mats, prolongs = newton_hierarchy(dim, degree, n0, levels)
        cfg = SolverConfig(method="mg_cg")
    else:
        mats, prolongs = h1_hierarchy(dim, degree, n0, levels)
        cfg = SolverConfig(method="mg_cg", rel_tol=RIESZ_TOL)
    vc = VCycleHierarchy(mats, prolongs)
    intervals = [(s.lo, s.hi) for s in vc.smoothers]
    k = mats[-1]
    solver = SpdSolver(k, cfg, vc)
    rng = np.random.default_rng(9)
    for _ in range(2):
        b = rng.standard_normal(k.shape[0])
        solver.solve(b)
        want = cg_iterations(k, b, cfg.rel_tol * 0.1, lambda r: (
            reference_vcycle(mats, prolongs, intervals, r)))
        assert solver.iteration_counts[-1] == want > 2


def test_one_level_hierarchy_is_the_float64_lu():
    # no level is smoothed, so nothing is rounded: the apply is the exact
    # LU solve and PCG converges in one iteration
    k = h1_interior(2, 1, 16)
    vc = VCycleHierarchy([k], [])
    b = np.random.default_rng(10).standard_normal(k.shape[0])
    assert np.array_equal(vc.apply(b), factor_symmetric(k).solve(b))
    solver = SpdSolver(k, SolverConfig(method="mg_cg", rel_tol=RIESZ_TOL), vc)
    solver.solve(b)
    solver.solve(k @ b)
    assert solver.iteration_counts == [1, 1]


def test_every_vcycle_apply_is_a_cg_iteration(monkeypatch):
    # PCG applies the V-cycle once per iteration and never to a zero
    # vector: in a linked-level Riesz norm and in an mg_cg bordered solve
    applied, solvers = [], []
    apply, init = VCycleHierarchy.apply, SpdSolver.__init__

    def recording_apply(vc, b):
        applied.append(bool(np.any(b)))
        return apply(vc, b)

    def recording_init(solver, *args, **kwargs):
        init(solver, *args, **kwargs)
        solvers.append(solver)

    monkeypatch.setattr(VCycleHierarchy, "apply", recording_apply)
    monkeypatch.setattr(SpdSolver, "__init__", recording_init)
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    ops = ctxs[-1]
    ops.riesz_norm(np.random.default_rng(7).standard_normal(
        ops.space.interior_dofs.size))
    assert len(applied) == sum(ops._riesz_solver().iteration_counts) > 1
    assert all(applied)

    x = _prolong_iterate(scf_solve(ctxs[0]), ctxs[0].space, ctxs[1].space)
    x = _prolong_iterate(newton_step(ctxs[:2], x), ctxs[1].space,
                         ctxs[2].space)
    system = assemble_newton_system(ops, x)
    vc = _build_vcycle(ctxs, system.g)
    applied.clear()
    solvers.clear()
    iterations = []
    pcg = linsolve_mod.pcg

    def recording_pcg(*args, **kwargs):
        out = pcg(*args, **kwargs)
        iterations.append(out[1])
        return out

    monkeypatch.setattr(linsolve_mod, "pcg", recording_pcg)
    solve_bordered(system, SolverConfig(method="mg_cg"), vcycle=vc)
    # the projected solve makes no SpdSolver: one apply to the border m,
    # then one per iteration
    assert solvers == [] and len(iterations) == 1
    assert len(applied) == iterations[0] + 1 > 3
    assert all(applied)


def test_vcycle_symmetry_check_catches_a_different_post_interval():
    class PostInterval:
        """Smooths with pre's interval from zero, with post's after."""

        def __init__(self, pre, post):
            self.pre, self.post = pre, post

        def smooth(self, k, b, degree, x=None):
            return (self.pre if x is None else self.post).smooth(k, b, degree,
                                                                 x)

    mats, prolongs = poisson_hierarchy(levels=4)
    broken = VCycleHierarchy(mats, prolongs)
    assert vcycle_asymmetry(broken, np.random.default_rng(6)) <= (
        VCYCLE_ROUNDING)
    broken.smoothers = [PostInterval(s, replace(s, lo=s.hi / 30))
                        for s in broken.smoothers]
    assert vcycle_asymmetry(broken, np.random.default_rng(6)) > (
        VCYCLE_ROUNDING)


def test_vcycle_symmetry_check_catches_lower_post_sweeps():
    class LowerSweeps:
        """Forward Gauss-Seidel, one lower-triangular solve per degree,
        before and after coarse correction alike."""

        def smooth(self, k, b, degree, x=None):
            x = np.zeros_like(b) if x is None else x
            lower = sp.tril(k, format="csr")
            for _ in range(degree):
                x = x + spla.spsolve_triangular(lower, b - k @ x, lower=True)
            return x

    mats, prolongs = poisson_hierarchy(levels=4)
    broken = VCycleHierarchy(mats, prolongs)
    broken.smoothers = [LowerSweeps() for _ in broken.smoothers]
    assert vcycle_asymmetry(broken, np.random.default_rng(6)) > (
        VCYCLE_ROUNDING)


@pytest.mark.parametrize("shift", [1.0, 1.5], ids=["zero", "negative"])
def test_vcycle_rejects_a_level_with_nonpositive_diagonal(shift):
    # D^-1 would hold inf, or a negative entry, and no longer define a
    # smoother; a matrix with such a diagonal is not positive definite
    mats, prolongs = poisson_hierarchy()
    k = mats[-1]
    k = (k - shift * k.diagonal().max() * sp.eye(k.shape[0])).tocsr()
    with pytest.raises(CoercivityError, match=(
            rf"^V-cycle level {len(mats)} \(1 is the coarsest\), "
            rf"{k.shape[0]} interior dofs: .*nonpositive diagonal entry")):
        VCycleHierarchy([*mats[:-1], k], prolongs)


def test_vcycle_apply_factors_nothing(monkeypatch):
    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("splu", "spsolve_triangular"):
        monkeypatch.setattr(spla, name, counting(getattr(spla, name)))
    mats, prolongs = poisson_hierarchy(levels=4)
    # set-up factors the coarse matrix and nothing else, and a refined
    # hierarchy shares that LU
    vc = VCycleHierarchy(mats[:-1], prolongs[:-1])
    vc = vc.refined(mats[-1], prolongs[-1])
    assert calls == ["splu"]
    calls.clear()
    vc.apply(np.ones(mats[-1].shape[0]))
    assert calls == []


def test_refined_hierarchies_share_the_restrictions():
    # each level's restriction is the view prolong.T, made once when the
    # level joins and shared by every refinement; the V-cycle equals the
    # one that transposes on every visit, bit for bit. The float32 level
    # matrices and prolongations copy only the data of the float64 ones
    # given, not their index arrays
    mats, prolongs = poisson_hierarchy(levels=4)
    coarse = VCycleHierarchy(mats[:-1], prolongs[:-1])
    fine = coarse.refined(mats[-1], prolongs[-1])
    other = coarse.refined(mats[-1], prolongs[-1])
    assert len(coarse.restricts) == len(mats) - 2
    for shared, *refined in zip(coarse.restricts, fine.restricts,
                                other.restricts):
        assert all(r is shared for r in refined)
    for p, r in zip(fine.prolongs, fine.restricts):
        assert np.shares_memory(r.data, p.data)
    assert fine.mats[0].dtype == np.float64
    for held, given in [*zip(fine.mats[1:], mats[1:]),
                        *zip(fine.prolongs, prolongs)]:
        assert held.dtype == np.float32
        assert np.array_equal(held.data, given.data.astype(np.float32))
        assert np.shares_memory(held.indices, given.indices)
        assert np.shares_memory(held.indptr, given.indptr)
    for smoother in fine.smoothers:
        assert smoother.dinv.dtype == np.float32

    def uncached(lvl, b):
        if lvl == 0:
            return fine.coarse_lu.solve(b.astype(float)).astype(np.float32)
        k, smoother = fine.mats[lvl], fine.smoothers[lvl - 1]
        x = smoother.smooth(k, b, linsolve_mod.CHEBYSHEV_DEGREE)
        p = fine.prolongs[lvl - 1]
        x += p @ uncached(lvl - 1, p.T @ (b - k @ x))
        return smoother.smooth(k, b, linsolve_mod.CHEBYSHEV_DEGREE, x)

    b = np.random.default_rng(7).standard_normal(mats[-1].shape[0])
    want = uncached(len(mats) - 1, b.astype(np.float32))
    assert want.dtype == np.float32
    assert np.array_equal(fine.apply(b), want.astype(float))


def backward_error(a, x, b):
    anorm = float(abs(a).sum(axis=1).max())
    return float(np.linalg.norm(a @ x - b)) / (
        anorm * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))


def h1_interior(dim, degree, cells):
    mesh = build_initial_mesh(BoxDomain.unit(dim), (cells,) * dim)
    ops = Operators(FemSpace(mesh, degree), Nonlinearity(zeta=1.0))
    return ops.h1


def indefinite_newton_matrix():
    """Newton matrix with lam0 between the 2nd and 3rd eigenvalues of its
    own pencil: two negative eigenvalues."""
    mesh = build_initial_mesh(BoxDomain.unit(2), (8, 8))
    ops = Operators(FemSpace(mesh, 1), Nonlinearity(zeta=1.0),
                    potential=parse("x1^2 + 2*x2^2", 2))
    u0 = np.zeros(ops.space.n_dofs)
    u0[ops.space.interior_dofs] = 1.0

    def newton_matrix(lam0):
        return assemble_newton_system(ops, IterateX(lam=lam0, u=u0)).k

    mu = sla.eigh(newton_matrix(0.0).toarray(), ops.mass.toarray(),
                  eigvals_only=True)
    a = newton_matrix(0.5 * (mu[1] + mu[2]))
    assert np.sum(np.linalg.eigvalsh(a.toarray()) < 0) == 2
    return a


def bordered_saddle_matrix():
    k = indefinite_newton_matrix()
    n = k.shape[0]
    m = np.random.default_rng(7).random(n)
    mcol = sp.csc_matrix(-m[:, None])
    return sp.bmat([[k, mcol], [mcol.T, None]], format="csc")


@pytest.mark.parametrize("build", [
    lambda: h1_interior(1, 2, 32),
    lambda: h1_interior(2, 1, 16),
    indefinite_newton_matrix,
    bordered_saddle_matrix,
], ids=["h1_1d_p2", "h1_2d_p1", "newton_indefinite", "bordered"])
def test_factor_symmetric_matches_dense_solve(build):
    a = build()
    b = np.random.default_rng(8).standard_normal(a.shape[0])
    x = factor_symmetric(a).solve(b)
    dense = np.linalg.solve(a.toarray(), b)
    assert backward_error(a, x, b) <= 1e-12
    assert backward_error(a, dense, b) <= 1e-12
    assert np.linalg.norm(x - dense) <= 1e-9 * np.linalg.norm(dense)



@pytest.mark.parametrize("chunk", [1, 3, 7, 50, 64])
def test_knorm_sums_rows_of_abs_k_chunk_by_chunk(monkeypatch, chunk):
    # ||K||_inf is the largest row sum of |K|, taken KNORM_ROWS rows at a
    # time: 50 rows, one of them empty, in chunks that do and do not
    # divide it, and in one chunk larger than K
    rng = np.random.default_rng(chunk)
    k = sp.random(50, 50, density=0.2, format="csr", random_state=rng,
                  data_rvs=lambda size: rng.standard_normal(size))
    k = sp.csr_matrix(k.toarray() * (np.arange(50) != 17)[:, None])
    monkeypatch.setattr(linsolve_mod, "KNORM_ROWS", chunk)
    want = abs(k).sum(axis=1).max()
    assert abs(linsolve_mod.inf_norm(k) - want) <= 1e-15 * want
