import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gpmg.linsolve as linsolve_mod
import gpmg.newton as newton_mod

from gpmg.assembly import (
    RIESZ_TOL,
    FemSpace,
    Operators,
    _interior_prolongation,
)
from gpmg.eigsolve import ScfConfig, scf_solve
from gpmg.errors import StagnationError, UsageError
from gpmg.expr import parse
from gpmg.linsolve import SolverConfig, SpdSolver
from gpmg.mesh import BoxDomain, build_hierarchy, build_initial_mesh
from gpmg.newton import (
    FULL_STEP,
    MixingParams,
    _build_vcycle,
    _prolong_iterate,
    _prolong_to_finest,
    _traced_resi,
    assemble_newton_system,
    build_contexts,
    damped_newton,
    mixing_iteration,
    multigrid_mixing,
    multigrid_newton,
    newton_fixed_space,
    newton_step,
    resi,
)
from gpmg.nonlinearity import Nonlinearity
from gpmg.state import IterateX
from riesz_bounds import assert_riesz_norm_close
from scf_oracle import scf_oracle


def ctx_1d(n=16, degree=2, zeta=1.0, potential=None):
    mesh = build_initial_mesh(BoxDomain.unit(1), (n,))
    return Operators(FemSpace(mesh, degree), Nonlinearity(zeta=zeta),
                     potential=potential)


def linear_eigenpair(ctx):
    space = ctx.space
    vals, vecs = sla.eigh(ctx.linear_part.toarray(), ctx.mass.toarray())
    u = np.zeros(space.n_dofs)
    u[space.interior_dofs] = vecs[:, 0]
    if u.sum() < 0:
        u = -u
    return IterateX(lam=vals[0], u=u)


def linked_start(ctxs, cfg=None):
    """The driver's path up to ctxs[-1]: the coarse solve, the Newton
    V-cycle on G at its solution, and one step on each level between,
    each refining that V-cycle. Returns ctxs[-1]'s prolongated start and
    the V-cycle of the level below it."""
    x = scf_solve(ctxs[0])
    vcycle = _build_vcycle(ctxs[0], x.u)
    for coarse, fine in zip(ctxs, ctxs[1:-1]):
        x, vcycle = newton_step(
            fine, _prolong_iterate(x, coarse.space, fine.space), cfg, vcycle)
    return _prolong_iterate(x, ctxs[-2].space, ctxs[-1].space), vcycle


def test_newton_fixed_point():
    # an exact discrete solution is a fixed point of the Newton step
    ctx = ctx_1d(zeta=0.0)
    x0 = linear_eigenpair(ctx)
    x1, _ = newton_step(ctx, x0)
    assert abs(x1.lam - x0.lam) <= 1e-9
    assert np.max(np.abs(x1.u - x0.u)) <= 1e-8


def test_newton_contracts_from_perturbed_start():
    ctx = ctx_1d(zeta=0.0)
    x_star = linear_eigenpair(ctx)
    rng = np.random.default_rng(8)
    u = x_star.u.copy()
    u[ctx.space.interior_dofs] += 0.05 * rng.standard_normal(
        ctx.space.interior_dofs.size
    )
    x0 = IterateX(lam=x_star.lam + 0.3, u=u)
    r0 = np.linalg.norm(ctx.residual(x0.lam, x0.u))
    x1, _ = newton_step(ctx, x0)
    r1 = np.linalg.norm(ctx.residual(x1.lam, x1.u))
    assert r1 <= r0 / 10.0


def test_mg_cg_step_uses_the_levels_it_is_given():
    # the step refines the coarser levels' V-cycle it is given, and its
    # mg_cg solve matches the direct solve of a step given none
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2", 2))
    x0, coarser = linked_start(ctxs)
    x_mg, vcycle = newton_step(ctxs[-1], x0, None, coarser)
    assert len(vcycle.mats) == len(ctxs) and len(coarser.mats) == 2
    x_dir, none = newton_step(ctxs[-1], x0)
    assert none is None
    assert abs(x_mg.lam - x_dir.lam) <= 1e-10
    assert np.max(np.abs(x_mg.u - x_dir.u)) <= 1e-10


def test_mg_cg_step_assembles_each_newton_matrix_once(monkeypatch):
    # one weighted-mass assembly, on the finest space: the V-cycle's top
    # matrix is the step's own Newton matrix, not a second assembly of it,
    # and its coarser levels are the given V-cycle's, not assembled again
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2", 2))
    x0, coarser = linked_start(ctxs)
    assembled, solved = [], []
    assemble = newton_mod.assemble_field_weighted_mass
    solve = newton_mod.solve_bordered

    def recording_assemble(space, *args):
        assembled.append(space)
        return assemble(space, *args)

    def recording_solve(system, cfg, vcycle=None):
        solved.append((system, vcycle))
        return solve(system, cfg, vcycle=vcycle)

    monkeypatch.setattr(newton_mod, "assemble_field_weighted_mass",
                        recording_assemble)
    monkeypatch.setattr(newton_mod, "solve_bordered", recording_solve)
    _, returned = newton_step(ctxs[-1], x0, None, coarser)
    assert [id(s) for s in assembled] == [id(ctxs[-1].space)]
    (system, vcycle), = solved
    assert vcycle is returned and len(vcycle.mats) == len(ctxs)
    for name in ("mats", "prolongs", "smoothers"):
        assert all(a is b for a, b in zip(getattr(vcycle, name),
                                          getattr(coarser, name)))
    assert vcycle.coarse_lu is coarser.coarse_lu
    # the V-cycle holds the step's SPD matrix G rounded to float32, on its
    # index arrays
    top = vcycle.mats[-1]
    assert np.array_equal(top.data, system.g.data.astype(np.float32))
    assert np.shares_memory(top.indices, system.g.indices)
    assert np.shares_memory(top.indptr, system.g.indptr)


def test_mg_cg_steps_share_the_interior_prolongations(monkeypatch):
    # the interior prolongations are cached per space pair, in float32 on
    # the float64 one's index arrays: two mg_cg steps' V-cycles and the H1
    # Riesz V-cycle hold the same objects
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2", 2))
    x, coarser = linked_start(ctxs)
    vcycles = []
    build = newton_mod._build_vcycle

    def recording_build(*args):
        vcycles.append(build(*args))
        return vcycles[-1]

    monkeypatch.setattr(newton_mod, "_build_vcycle", recording_build)
    cfg = SolverConfig()
    newton_step(ctxs[-1], newton_step(ctxs[-1], x, cfg, coarser)[0], cfg,
                coarser)
    riesz = ctxs[-1]._riesz_solver().vcycle
    assert len(vcycles) == 2 and len(riesz.prolongs) == len(ctxs) - 1
    for first, second, h1 in zip(*(v.prolongs for v in vcycles),
                                 riesz.prolongs):
        assert first is second is h1
    for coarse, fine, p in zip(ctxs, ctxs[1:], riesz.prolongs):
        p64 = _interior_prolongation(coarse.space, fine.space)
        assert p.dtype == np.float32
        assert np.array_equal(p.data, p64.data.astype(np.float32))
        assert np.shares_memory(p.indices, p64.indices)
        assert np.shares_memory(p.indptr, p64.indptr)


def test_mg_cg_newton_step_peaks_within_a_budget_per_nonzero():
    # one mg_cg Newton step on a 2D P1 level of 16,129 interior dofs, its
    # Riesz solver and prolongations built beforehand, as `resi` builds
    # them before every step of a run, and its coarser Newton V-cycle
    # grown by the steps below it, as the driver grows it. Its tracemalloc
    # peak above its start, per nonzero of K, is 23.0 bytes, set in the
    # projected PCG solve by G (8), its float32 copy (4) and the solve's
    # vectors (1.1 each). The step keeps G only and applies K as
    # G p - (lam0 + s) M p; the Schur path, which kept K and solved twice,
    # peaked at 27.2. A data-sized temporary costs 8: with |K| built whole
    # for ||K||_inf the step peaked at 32.3. Coarser float64 Galerkin
    # products P' G P, formed by every step, put it at 26.0, and at 30.1
    # formed as P' (G P)
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 6)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    cfg = SolverConfig()
    x, coarser = linked_start(ctxs, cfg)
    resi(ctxs[-1], x)
    assert ctxs[-1].space.interior_dofs.size >= 16_000
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        newton_step(ctxs[-1], x, cfg, coarser)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 27.0 * ctxs[-1].mass.nnz


def test_a_run_sets_up_each_newton_vcycle_level_once(monkeypatch):
    # a 4-level 2D P1 run grows one Newton V-cycle: one smoother set-up per
    # linked level (3; a V-cycle rebuilt by every step makes 1 + 2 + 3)
    # and one coarsest LU (3 when rebuilt). The H1 Riesz V-cycle, grown
    # the same way, makes 3 and 1 too; the coarse solve's direct steps
    # factor K and set up no smoother
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 4)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    owner, counts = ["coarse"], {}

    def within(name, fn):
        def wrapped(*args, **kwargs):
            outer, owner[0] = owner[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                owner[0] = outer
        return wrapped

    def counting(kind, fn):
        def wrapped(*args, **kwargs):
            counts[owner[0], kind] = counts.get((owner[0], kind), 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    smoother = linsolve_mod.ChebyshevSmoother
    monkeypatch.setattr(newton_mod, "_build_vcycle",
                        within("newton", newton_mod._build_vcycle))
    monkeypatch.setattr(Operators, "_riesz_solver",
                        within("riesz", Operators._riesz_solver))
    monkeypatch.setattr(linsolve_mod, "factor_symmetric",
                        counting("lu", linsolve_mod.factor_symmetric))
    monkeypatch.setattr(smoother, "for_matrix",
                        counting("smoother", smoother.for_matrix))
    multigrid_newton(ctxs)
    assert counts.pop(("coarse", "lu")) > 0
    assert counts == {("newton", "smoother"): 3, ("newton", "lu"): 1,
                      ("riesz", "smoother"): 3, ("riesz", "lu"): 1}


def test_repeated_mg_cg_step_builds_no_coo_matrix(monkeypatch):
    # every matrix a Newton step assembles is data on its space's cached
    # interior pattern: once the first step
    # has built the caches, a step and its resi make no COO matrix in
    # gpmg.assembly or gpmg.newton (attributed to the nearest gpmg frame)
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2", 2))
    cfg = SolverConfig()
    x, coarser = linked_start(ctxs)
    x, _ = newton_step(ctxs[-1], x, cfg, coarser)
    resi(ctxs[-1], x)
    built = []
    init = sp.coo_matrix.__init__

    def recording_init(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and not frame.f_globals.get(
                "__name__", "").startswith("gpmg."):
            frame = frame.f_back
        built.append(frame and frame.f_globals["__name__"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.coo_matrix, "__init__", recording_init)
    resi(ctxs[-1], newton_step(ctxs[-1], x, cfg, coarser)[0])
    assert not {"gpmg.assembly", "gpmg.newton"} & set(built)


def test_border_equation_exact_after_solve():
    # the returned iterate satisfies the normalization border equation:
    # -(u0, u1) = -1/2 - (u0,u0)/2 up to solver tolerance
    ctx = ctx_1d(zeta=2.0, potential=parse("x1^2", 1))
    x0 = scf_solve(ctx, ScfConfig(tol=1e-6))
    x1, _ = newton_step(ctx, x0)
    ix = ctx.space.interior_dofs
    mu0 = ctx.mass @ x0.u[ix]
    lhs = -float(mu0 @ x1.u[ix])
    rhs = -0.5 - 0.5 * float(x0.u[ix] @ mu0)
    assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("dim,degree,levels", [(2, 1, 4), (3, 2, 3)],
                         ids=["2d-p1", "3d-p2"])
def test_newton_vcycle_coarse_matrices_are_the_coarser_steps_g(monkeypatch,
                                                              dim, degree,
                                                              levels):
    # a driver run grows one Newton V-cycle: on the coarsest level G at the
    # coarse solution, in float64, the matrix its LU factors; on each finer
    # level the G of that level's own step, bit for bit, rounded to
    # float32 on its index arrays, the space's interior pattern. Each
    # step's V-cycle holds its coarser step's levels as they are
    hier = build_hierarchy(BoxDomain.unit(dim), (2,) * dim, levels)
    ctxs = build_contexts(hier, degree, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2", dim))
    assembled, vcycles = [], []
    spd, solve = newton_mod._spd_matrix, newton_mod.solve_bordered

    def recording_spd(ctx, u0):
        assembled.append((ctx.space, spd(ctx, u0)))
        return assembled[-1][1]

    def recording_solve(system, cfg, vcycle=None):
        vcycles.append(vcycle)
        return solve(system, cfg, vcycle=vcycle)

    monkeypatch.setattr(newton_mod, "_spd_matrix", recording_spd)
    monkeypatch.setattr(newton_mod, "solve_bordered", recording_solve)
    _, trace = multigrid_newton(ctxs)
    # the coarse solve's steps come first; then one G per level
    spaces, gs = zip(*assembled[-levels:])
    assert [id(s) for s in spaces] == [id(c.space) for c in ctxs]
    coarsest = spd(ctxs[0], trace[0].x.u)
    assert gs[0].dtype == np.float64
    assert np.array_equal(gs[0].data, coarsest.data)
    steps = vcycles[-(levels - 1):]
    vc = steps[-1]
    assert len(vc.mats) == levels and vc.mats[0] is gs[0]
    for held, g, ctx in zip(vc.mats[1:], gs[1:], ctxs[1:]):
        assert held.dtype == np.float32
        assert np.array_equal(held.data, g.data.astype(np.float32))
        assert np.shares_memory(held.indices, g.indices)
        assert np.shares_memory(held.indptr, g.indptr)
        pattern = ctx.space.pattern()
        assert np.array_equal(g.indptr, pattern.indptr)
        assert np.array_equal(g.indices, pattern.indices)
    for k, step in enumerate(steps):
        assert len(step.mats) == k + 2
        assert all(a is b for a, b in zip(step.mats, vc.mats))
        assert step.coarse_lu is vc.coarse_lu


def test_newton_requires_matching_space():
    ctx_c = ctx_1d(n=8)
    ctx_f = ctx_1d(n=16)
    x0 = linear_eigenpair(ctx_c)
    with pytest.raises(UsageError):
        assemble_newton_system(ctx_f, x0)


def test_jacobian_matches_finite_differences():
    # bordered matrix [[K, -m], [-m', 0]] vs FD Jacobian of
    # G(u, lam) = (residual(lam, u) ; 1/2 - (u,u)/2)
    ctx = ctx_1d(n=12, zeta=1.0, potential=parse("x1^2", 1))
    space = ctx.space
    ix = space.interior_dofs
    rng = np.random.default_rng(5)
    u0 = np.zeros(space.n_dofs)
    u0[ix] = 0.5 + 0.1 * rng.standard_normal(ix.size)
    u0 /= ctx.l2_norm(u0)
    lam0 = ctx.rayleigh_lambda(u0)
    x0 = IterateX(lam=lam0, u=u0)
    system = assemble_newton_system(ctx, x0)
    n = ix.size
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = system.k.toarray()
    jac[:n, n] = -system.m
    jac[n, :n] = -system.m

    def g(u_int, lam):
        u = np.zeros(space.n_dofs)
        u[ix] = u_int
        r = ctx.residual(lam, u)
        return np.concatenate([r, [0.5 - 0.5 * (u_int @ (ctx.mass @ u_int))]])

    h = 1e-6
    fd = np.zeros_like(jac)
    base_u = u0[ix]
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        fd[:, j] = (g(base_u + e, lam0) - g(base_u - e, lam0)) / (2 * h)
    fd[:, n] = (g(base_u, lam0 + h) - g(base_u, lam0 - h)) / (2 * h)
    scale = np.max(np.abs(jac))
    assert np.max(np.abs(fd - jac)) <= 1e-6 * scale


def test_resi_zero_at_discrete_solution():
    ctx = ctx_1d(zeta=3.0)
    x = scf_solve(ctx, ScfConfig(tol=1e-13))
    assert resi(ctx, x) <= 1e-8


def test_resi_scales_linearly():
    # doubling the residual functional doubles the Riesz-norm term
    ctx = ctx_1d(zeta=0.0)
    x_star = linear_eigenpair(ctx)
    u = x_star.u
    x_a = IterateX(lam=x_star.lam + 0.5, u=u)
    x_b = IterateX(lam=x_star.lam + 1.0, u=u)
    assert np.isclose(resi(ctx, x_b), 2.0 * resi(ctx, x_a), rtol=1e-8)


def test_newton_fixed_space_quadratic_history():
    ctx = ctx_1d(n=16, zeta=10.0, potential=parse("x1^2", 1))
    x0 = scf_solve(ctx, ScfConfig(tol=1e-2))
    x, history = newton_fixed_space(x0, ctx, tol=1e-11)
    assert history[-1] <= 1e-11
    assert all(history[i + 1] < history[i] for i in range(len(history) - 1))


@pytest.mark.parametrize("sigma", [1.5, 3.0])
def test_newton_fixed_space_decays_quadratically(sigma):
    # acceptance 6's 2D P1 space, from its ground state with each interior
    # value scaled by 1 + 0.2 N(0, 1): every step from a resi above 1e-10
    # ends at most C resi^2 with C = 1 (the largest ratio seen is 0.25).
    # A wrong f' (one without its sigma factor) converges linearly. The
    # bound leaves no room for the round-off floor, ~5e-15 here: a step
    # from a resi between 1e-10 and ~7e-8 would land on the floor, above
    # C resi^2; this start takes none
    space = FemSpace(build_initial_mesh(BoxDomain.unit(2), (8, 8)), 1)
    ctx = Operators(space, Nonlinearity(zeta=1.0, sigma=sigma),
                    potential=parse("x1^2 + 2*x2^2", 2))
    u = scf_solve(ctx, ScfConfig(tol=1e-12)).u.copy()
    ix = space.interior_dofs
    u[ix] *= 1.0 + 0.2 * np.random.default_rng(0).standard_normal(ix.size)
    u /= ctx.l2_norm(u)
    _, history = newton_fixed_space(
        IterateX(lam=ctx.rayleigh_lambda(u), u=u), ctx)
    assert history[-1] <= 1e-10
    steps = [(old, new) for old, new in zip(history, history[1:])
             if old > 1e-10]
    assert len(steps) >= 4
    for old, new in steps:
        assert new <= 1.0 * old**2, history


def test_newton_fixed_space_stagnates_at_the_first_growth(monkeypatch):
    # the full step is accepted only if resi does not rise: the first
    # growth ends the solve, with the two resi values it compared
    ctx = ctx_1d(n=8, zeta=1.0)
    x0 = scf_solve(ctx, ScfConfig(tol=1e-4))
    growing = iter([1.0, 2.0, 4.0, 8.0, 16.0])
    monkeypatch.setattr(newton_mod, "resi", lambda *_: next(growing))
    with pytest.raises(StagnationError) as info:
        newton_fixed_space(x0, ctx, tol=1e-12, max_steps=6)
    assert (info.value.resi_old, info.value.resi_new) == (1.0, 2.0)


def test_damped_newton_carries_each_accepted_resi_forward(monkeypatch):
    # one resi per theta tried: the start's is given, and each step's
    # accepted resi is the next step's resi_old
    ctx = ctx_1d(n=16, zeta=10.0, potential=parse("x1^2", 1))
    x0 = scf_solve(ctx, ScfConfig(tol=1e-2))
    calls = []

    def counted(ops, x):
        calls.append(1)
        return resi(ops, x)

    monkeypatch.setattr(newton_mod, "resi", counted)
    x, history, thetas = damped_newton(ctx, x0, resi(ctx, x0), 1e-11, 12,
                                       FULL_STEP)
    assert history[-1] <= 1e-11 < history[-2]
    assert thetas == [1.0] * (len(history) - 1)
    assert len(calls) == len(thetas)
    assert history[-1] == resi(ctx, x)
    # a spent budget returns the unconverged iterate, not an error
    _, short, _ = damped_newton(ctx, x0, history[0], 1e-11, 1, FULL_STEP)
    assert short == history[:2]


def test_mixing_accepts_theta_one_when_newton_decreases():
    ctx = ctx_1d(zeta=1.0)
    x0 = scf_solve(ctx, ScfConfig(tol=1e-4))
    x1, theta, _, _ = mixing_iteration(ctx, x0)
    assert theta == 1.0
    assert resi(ctx, x1) <= resi(ctx, x0)


def test_mixing_halves_theta_on_overshoot():
    # strong coupling on a very coarse 3D start: the full Newton target
    # overshoots and the acceptance loop must settle on theta < 1
    potential = parse(
        "x1^2+x2^2+x3^2+sin(2*pi*x1)^2+sin(2*pi*x2)^2+sin(2*pi*x3)^2", 3
    )
    hier = build_hierarchy(BoxDomain.unit(3), (2, 2, 2), 2)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=100.0),
                          potential=potential)
    x0p, coarser = linked_start(ctxs)
    x1, theta, _, _ = mixing_iteration(ctxs[1], x0p, coarser=coarser)
    assert theta < 1.0
    assert resi(ctxs[1], x1) <= resi(ctxs[1], x0p)


def test_mixing_stagnation_error(monkeypatch):
    # resi rises at every theta: the search halves theta down to theta_min,
    # no further, and reports the start's resi and the last trial's
    # the step is a synthetic target 1 away from x0 in lam (and in u on
    # the interior), so each theta tried reads off lam to round-off
    ctx = ctx_1d(n=8, zeta=1.0)
    x0 = scf_solve(ctx, ScfConfig(tol=1e-4))
    steps = []

    def recording_step(ops, x, cfg=None, coarser=None):
        u = x.u.copy()
        u[ctx.space.interior_dofs] += 1.0
        steps.append(IterateX(lam=x.lam + 1.0, u=u))
        return steps[-1], None

    tried = []

    def rising_resi(ops, x):
        if x is x0:
            return 1.0
        tried.append((x.lam - x0.lam) / (steps[0].lam - x0.lam))
        return 1.0 + len(tried)

    monkeypatch.setattr(newton_mod, "newton_step", recording_step)
    monkeypatch.setattr(newton_mod, "resi", rising_resi)
    params = MixingParams(theta_init=1.0, theta_min=0.1)
    with pytest.raises(StagnationError) as info:
        mixing_iteration(ctx, x0, params=params)
    assert len(steps) == 1
    np.testing.assert_allclose(tried, [1.0, 0.5, 0.25, 0.125], rtol=1e-9)
    assert min(tried) >= params.theta_min > 0.5 * min(tried)
    assert (info.value.resi_old, info.value.resi_new) == (1.0, 5.0)


EX2_POTENTIAL = ("x1^2 + x2^2 + x3^2 + sin(2*pi*x1)^2 + sin(2*pi*x2)^2"
                 " + sin(2*pi*x3)^2")


def test_mixing_decisions_same_under_pcg_and_lu_riesz_norm(monkeypatch):
    # acceptance 5's case: every Riesz norm the mixing run evaluates, and so
    # every theta it accepts, agrees between the V-cycle PCG solve and an LU
    def run(riesz_norm):
        norms = []

        def recording(ops, functional):
            norms.append(riesz_norm(ops, functional))
            return norms[-1]

        monkeypatch.setattr(Operators, "riesz_norm", recording)
        hier = build_hierarchy(BoxDomain.unit(3), (2, 2, 2), 3)
        ctxs = build_contexts(hier, 2, Nonlinearity(zeta=100.0),
                              potential=parse(EX2_POTENTIAL, 3))
        _, trace = multigrid_mixing(ctxs, params=MixingParams(theta_init=0.5))
        return norms, trace

    lus = {}

    def lu_riesz_norm(ops, functional):
        if id(ops.h1) not in lus:
            lus[id(ops.h1)] = spla.splu(ops.h1.tocsc())
        z = lus[id(ops.h1)].solve(functional)
        return float(np.sqrt(max(z @ functional, 0.0)))

    pcg_norms, pcg_trace = run(Operators.riesz_norm)
    lu_norms, lu_trace = run(lu_riesz_norm)
    # 15 in the coarse solve, the finest-space trace resi of levels 1 and
    # 2, level 2's start and one trial, and level 3's one trial: its start
    # is level 2's traced iterate, whose resi is reused
    assert len(pcg_norms) == len(lu_norms) == 20
    assert_riesz_norm_close(pcg_norms, lu_norms)
    assert [r.theta for r in pcg_trace] == [r.theta for r in lu_trace]
    # the iterates are the same, so each resi differs by its norm's error
    assert_riesz_norm_close([r.resi for r in pcg_trace],
                            [r.resi for r in lu_trace])


@pytest.mark.parametrize("dim,degree,n0,levels,zeta,potential,params", [
    (2, 1, 4, 4, 1.0, "x1^2 + 2*x2^2", None),
    (3, 2, 2, 3, 100.0, EX2_POTENTIAL, MixingParams(theta_init=0.5)),
], ids=["2d-p1-newton", "3d-p2-mixing"])
def test_riesz_norm_matches_an_lu_on_every_call(monkeypatch, dim, degree, n0,
                                                levels, zeta, potential,
                                                params):
    # every Riesz norm a driver run evaluates is an LU's within the
    # contract: low by the PCG's truncation, high by float32 round-off
    calls = []
    riesz_norm = Operators.riesz_norm

    def recording(ops, functional):
        calls.append((ops, functional.copy(), riesz_norm(ops, functional)))
        return calls[-1][2]

    monkeypatch.setattr(Operators, "riesz_norm", recording)
    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, levels)
    ctxs = build_contexts(hier, degree, Nonlinearity(zeta=zeta),
                          potential=parse(potential, dim))
    if params is None:
        multigrid_newton(ctxs)
    else:
        multigrid_mixing(ctxs, params=params)
    assert {id(ops) for ops, _, _ in calls} >= {id(ops) for ops in ctxs[1:]}
    lus = {}
    for ops, functional, got in calls:
        if id(ops.h1) not in lus:
            lus[id(ops.h1)] = spla.splu(ops.h1.tocsc())
        want = float(np.sqrt(lus[id(ops.h1)].solve(functional) @ functional))
        assert_riesz_norm_close(got, want)


def test_finest_riesz_solves_stop_at_the_norms_accuracy():
    # RIESZ_TOL asks only what the norm's contract needs: every finest
    # Riesz PCG solve of a 2D P1 Newton run takes at most 5 iterations
    # (measured 4, 4, 4, 5; 7, 7, 7, 8 when solved to 1e-6)
    hier = build_hierarchy(BoxDomain.unit(2), (8, 8), 4)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    multigrid_newton(ctxs)
    counts = ctxs[-1]._riesz_solver().iteration_counts
    assert len(counts) == 4
    assert max(counts) <= 5


def _record_newton_solves(monkeypatch):
    """Lists that fill, one entry per Newton step, with the step's
    (resi_old, lambda0) and its bordered solve: the config it ran under,
    whether it was projected mg_cg, and its PCG iterations (None when
    direct)."""
    steps, solves = [], []
    solve, pcg = newton_mod.solve_bordered, linsolve_mod.pcg
    mixing = newton_mod.mixing_iteration

    def recording_solve(system, cfg, vcycle=None):
        solves.append({"system": system, "vcycle": vcycle, "cfg": cfg,
                       "mg_cg": vcycle is not None, "iterations": None})
        return solve(system, cfg, vcycle=vcycle)

    def recording_pcg(*args, border=None, **kwargs):
        out = pcg(*args, border=border, **kwargs)
        if border is not None:
            solves[-1]["iterations"] = out[1]
        return out

    def recording_mixing(ctx, x0, params=None, cfg=None, resi_old=None,
                         coarser=None):
        if resi_old is None:
            resi_old = resi(ctx, x0)
        steps.append((resi_old, x0.lam))
        return mixing(ctx, x0, params, cfg, resi_old, coarser)

    monkeypatch.setattr(newton_mod, "solve_bordered", recording_solve)
    monkeypatch.setattr(linsolve_mod, "pcg", recording_pcg)
    monkeypatch.setattr(newton_mod, "mixing_iteration", recording_mixing)
    return steps, solves


@pytest.fixture(scope="module")
def p1_2d_run():
    """2D P1 from n0 = 16 over 4 levels at zeta = 10 (two coarse rungs):
    levels 2-4 solve by projected mg_cg, level 4 with 16,129 interior
    dofs."""
    hier = build_hierarchy(BoxDomain.unit(2), (16, 16), 4)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=10.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    with pytest.MonkeyPatch.context() as mp:
        steps, solves = _record_newton_solves(mp)
        multigrid_newton(ctxs)
    return ctxs, steps, solves


def test_finest_mg_cg_newton_solves_stop_at_the_steps_tolerance(p1_2d_run):
    # the finest step solves to (resi_old/|lambda0|)^2 = 6.5e-6, not to
    # solver.rel_tol: one projected PCG solve of 8 iterations, where the
    # same solve to rel_tol takes 13
    ctxs, _, solves = p1_2d_run
    finest = solves[-1]
    system = finest["system"]
    assert system.m.size == ctxs[-1].space.interior_dofs.size == 16_129
    assert finest["mg_cg"]
    assert finest["cfg"].rel_tol == pytest.approx(6.5e-6, rel=0.01)
    assert finest["iterations"] <= 8
    with pytest.MonkeyPatch.context() as mp:
        _, again = _record_newton_solves(mp)
        again.append({})
        linsolve_mod.solve_bordered(system, SolverConfig(),
                                    vcycle=finest["vcycle"])
    assert again[-1]["iterations"] >= finest["iterations"] + 4


def test_only_mg_cg_newton_steps_loosen_the_linear_tolerance(p1_2d_run):
    # an mg_cg step solves to max(rel_tol, (resi_old/|lambda0|)^2); every
    # direct step, the coarse rungs' included, to rel_tol exactly
    _, steps, solves = p1_2d_run
    rel_tol = SolverConfig().rel_tol
    assert len(steps) == len(solves)
    methods = [s["mg_cg"] for s in solves]
    assert methods[-3:] == [True] * 3 and methods.count(False) >= 7
    for (resi_old, lam0), solve in zip(steps, solves):
        want = rel_tol
        if solve["mg_cg"]:
            want = max(rel_tol, (resi_old / abs(lam0)) ** 2)
            assert want > rel_tol
        assert solve["cfg"].rel_tol == want


def test_converging_mg_cg_steps_return_to_the_rel_tol_floor(monkeypatch):
    # full mg_cg steps repeated on the second of two levels, each on the
    # coarse level's V-cycle: the quadratic term falls from 4e-4 to 3e-16,
    # and each step whose term is below rel_tol solves to rel_tol itself
    hier = build_hierarchy(BoxDomain.unit(2), (8, 8), 2)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=10.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    x, coarser = linked_start(ctxs)
    cfg = SolverConfig()
    steps, solves = _record_newton_solves(monkeypatch)
    history = [resi(ctxs[1], x)]
    while history[-1] > 1e-11 and len(history) <= 8:
        x, _, r, _ = newton_mod.mixing_iteration(ctxs[1], x, FULL_STEP, cfg,
                                                 history[-1], coarser)
        history.append(r)
    assert history[-1] <= 1e-11
    assert all(s["mg_cg"] for s in solves)
    terms = [(r / abs(lam0)) ** 2 for r, lam0 in steps]
    tols = [s["cfg"].rel_tol for s in solves]
    assert terms[0] > cfg.rel_tol and tols[0] == terms[0]
    assert terms[-1] < cfg.rel_tol
    for term, tol in zip(terms, tols):
        assert tol == max(cfg.rel_tol, term)


@pytest.mark.parametrize("mixing", [False, True], ids=["newton", "mixing"])
def test_driver_reuses_the_traced_resi_of_the_finest_start(monkeypatch,
                                                            mixing):
    # the finest step starts from the previous row's iterate prolongated
    # once, and that row's trace already holds its resi: the finest space
    # evaluates one resi per trace row below it plus one per theta tried
    hier = build_hierarchy(BoxDomain.unit(1), (4,), 4)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=25.0))
    finest = []
    riesz_norm = Operators.riesz_norm

    def recording(ops, functional):
        finest.append(ops.space is ctxs[-1].space)
        return riesz_norm(ops, functional)

    monkeypatch.setattr(Operators, "riesz_norm", recording)
    if mixing:
        _, trace = multigrid_mixing(ctxs)
    else:
        _, trace = multigrid_newton(ctxs)
    theta = trace[-1].theta or 1.0
    tried = 1 - round(np.log2(theta))
    assert sum(finest) == len(ctxs) - 1 + tried
    # and every row's resi is its iterate's finest-space resi, recomputed
    for row in trace:
        u = _prolong_to_finest(ctxs, row.x.u, row.level - 1)
        assert row.resi == resi(ctxs[-1], IterateX(lam=row.x.lam, u=u))


def test_overlapped_rows_hold_their_iterates_finest_resi():
    # 65,025 finest interior dofs: rows 1-3 take their traced resi on the
    # driver's worker thread, the very value this thread computes
    hier = build_hierarchy(BoxDomain.unit(2), (16, 16), 5)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    assert ctxs[-1].space.interior_dofs.size >= newton_mod.OVERLAP_MIN_DOFS
    _, trace = multigrid_newton(ctxs)
    for k, row in enumerate(trace):
        assert row.resi == _traced_resi(ctxs, row.x, k)


def test_concurrent_riesz_norms_match_serial_ones():
    # the driver's worker thread evaluates finest-space resi beside the
    # driver thread's own, on one shared Riesz solver: three threads at a
    # short switch interval get the serial norms bit for bit, and the
    # solver records every solve
    hier = build_hierarchy(BoxDomain.unit(2), (8, 8), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    finest = ctxs[-1]
    rng = np.random.default_rng(0)
    functionals = rng.standard_normal((6, finest.space.interior_dofs.size))
    want = [finest.riesz_norm(f) for f in functionals]
    counts = finest._riesz_solver().iteration_counts
    solves, got = len(counts), []

    def work():
        got.append([finest.riesz_norm(f) for f in functionals])

    threads = [threading.Thread(target=work) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [want] * 3
    assert len(counts) == solves + 3 * len(functionals)


def test_multigrid_newton_trace_fields():
    hier = build_hierarchy(BoxDomain.unit(1), (4,), 3)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2", 1))
    x, trace = multigrid_newton(ctxs, reference_lambda=0.0)
    assert len(trace) == 3
    assert [r.level for r in trace] == [1, 2, 3]
    assert [r.n_dofs for r in trace] == [c.space.n_dofs for c in ctxs]
    assert all(r.err_lambda is not None for r in trace)
    assert trace[0].theta is None
    assert x.u.shape == (ctxs[-1].space.n_dofs,)


def test_multigrid_mixing_monotone_resi_trace():
    hier = build_hierarchy(BoxDomain.unit(1), (4,), 4)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=25.0))
    x, trace = multigrid_mixing(ctxs)
    resis = [r.resi for r in trace]
    assert all(resis[i + 1] <= resis[i] for i in range(len(resis) - 1))
    assert all(r.theta is not None for r in trace[1:])


def test_renormalize_final_iterate():
    hier = build_hierarchy(BoxDomain.unit(1), (4,), 3)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=1.0))
    x_raw, _ = multigrid_newton(ctxs)
    x_rn, _ = multigrid_newton(ctxs, renormalize=True)
    norm = ctxs[-1].l2_norm(x_rn.u)
    assert abs(norm - 1.0) <= 1e-12
    assert np.isclose(x_rn.lam, ctxs[-1].rayleigh_lambda(x_rn.u),
                      rtol=1e-12)
    assert abs(x_rn.lam - x_raw.lam) <= 1e-6  # tiny correction only


def test_multigrid_newton_matches_oracle_each_level():
    # the one-step-per-level iterate stays close to the per-level discrete
    # solution computed independently by damped SCF
    hier = build_hierarchy(BoxDomain.unit(1), (8,), 3)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=2.0),
                          potential=parse("x1^2", 1))
    x, trace = multigrid_newton(ctxs)
    oracle = scf_oracle(ctxs[-1])
    assert abs(x.lam - oracle.lam) <= 1e-8
