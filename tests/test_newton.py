import numpy as np
import pytest
import scipy.linalg as sla

from gpmg.assembly import FemSpace, Operators, evaluate_field
from gpmg.eigsolve import ScfConfig, scf_solve
from gpmg.errors import (
    ConfigurationError,
    DivergenceError,
    StagnationError,
    UsageError,
)
from gpmg.expr import parse
from gpmg.linsolve import SolverConfig
from gpmg.mesh import BoxDomain, build_hierarchy, build_initial_mesh
from gpmg.newton import (
    MixingParams,
    _nested_dofs,
    _prolong_iterate,
    assemble_newton_system,
    build_contexts,
    mixing_iteration,
    multigrid_mixing,
    multigrid_newton,
    newton_fixed_space,
    newton_step,
    resi,
)
from gpmg.nonlinearity import Nonlinearity
from gpmg.state import IterateX


def ctx_1d(n=16, degree=2, zeta=1.0, potential=None):
    mesh = build_initial_mesh(BoxDomain.unit(1), (n,))
    return Operators(FemSpace(mesh, degree), Nonlinearity(zeta=zeta),
                     potential=potential)


def linear_eigenpair(ctx):
    space = ctx.space
    ix = space.interior_dofs
    k = ctx.linear_part[ix][:, ix].toarray()
    m = ctx.mass[ix][:, ix].toarray()
    vals, vecs = sla.eigh(k, m)
    u = np.zeros(space.n_dofs)
    u[ix] = vecs[:, 0]
    if u.sum() < 0:
        u = -u
    return IterateX(lam=vals[0], u=u)


def test_newton_fixed_point():
    # an exact discrete solution is a fixed point of the Newton step
    ctx = ctx_1d(zeta=0.0)
    x0 = linear_eigenpair(ctx)
    x1 = newton_step([ctx], x0)
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
    x1 = newton_step([ctx], x0)
    r1 = np.linalg.norm(ctx.residual(x1.lam, x1.u))
    assert r1 <= r0 / 10.0


def test_mg_cg_step_uses_the_levels_it_is_given():
    # levels = the hierarchy up to the step's own level: mg_cg matches the
    # direct solve there, and a single level leaves no V-cycle for it
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2", 2))
    x = _prolong_iterate(scf_solve(ctxs[0]), ctxs[0].space, ctxs[1].space)
    x = newton_step(ctxs[:2], x)
    x0 = _prolong_iterate(x, ctxs[1].space, ctxs[2].space)
    x_mg = newton_step(ctxs, x0, SolverConfig(method="mg_cg"))
    x_dir = newton_step(ctxs[-1:], x0, SolverConfig(method="direct"))
    assert abs(x_mg.lam - x_dir.lam) <= 1e-10
    assert np.max(np.abs(x_mg.u - x_dir.u)) <= 1e-10
    with pytest.raises(ConfigurationError):
        newton_step(ctxs[-1:], x0, SolverConfig(method="mg_cg"))


def test_border_equation_exact_after_solve():
    # the returned iterate satisfies the normalization border equation:
    # -(u0, u1) = -1/2 - (u0,u0)/2 up to solver tolerance
    ctx = ctx_1d(zeta=2.0, potential=parse("x1^2", 1))
    x0 = scf_solve(ctx, ScfConfig(tol=1e-6))
    x1 = newton_step([ctx], x0)
    mu0 = ctx.mass @ x0.u
    lhs = -float(mu0 @ x1.u)
    rhs = -0.5 - 0.5 * float(x0.u @ mu0)
    assert abs(lhs - rhs) <= 1e-10


@pytest.mark.parametrize("dim,degree,levels", [(2, 1, 4), (3, 2, 3)],
                         ids=["2d-p1", "3d-p2"])
def test_nested_dofs_gather_equals_point_evaluation(dim, degree, levels):
    # gathering a fine field at the nested dofs is its nodal interpolant
    # on the coarse space, bit for bit
    hier = build_hierarchy(BoxDomain.unit(dim), (2,) * dim, levels)
    spaces = [FemSpace(m, degree) for m in hier.levels]
    rng = np.random.default_rng(dim)
    for coarse, fine in zip(spaces, spaces[1:]):
        u = rng.standard_normal(fine.n_dofs)
        gathered = u[_nested_dofs(coarse, fine)]
        assert np.array_equal(gathered,
                              evaluate_field(fine, u, coarse.dof_coords))


def test_newton_requires_matching_space():
    ctx_c = ctx_1d(n=8)
    ctx_f = ctx_1d(n=16)
    x0 = linear_eigenpair(ctx_c)
    with pytest.raises(UsageError):
        assemble_newton_system(ctx_f, x0)


def test_jacobian_matches_finite_differences():
    # bordered matrix [[K, -m], [-m', 0]] vs FD Jacobian of
    # G(u, lam) = (residual(lam, u)_int ; 1/2 - (u,u)/2)
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
        r = ctx.residual(lam, u)[ix]
        return np.concatenate([r, [0.5 - 0.5 * (u @ (ctx.mass @ u))]])

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


def test_newton_fixed_space_divergence_error(monkeypatch):
    # two consecutive residual growths must abort with a divergence error
    import gpmg.newton as newton_mod

    ctx = ctx_1d(n=8, zeta=1.0)
    x0 = scf_solve(ctx, ScfConfig(tol=1e-4))
    growing = iter([1.0, 2.0, 4.0, 8.0, 16.0])
    monkeypatch.setattr(newton_mod, "resi", lambda *_: next(growing))
    with pytest.raises(DivergenceError):
        newton_fixed_space(x0, ctx, tol=1e-12, max_steps=6)


def test_mixing_accepts_theta_one_when_newton_decreases():
    ctx = ctx_1d(zeta=1.0)
    x0 = scf_solve(ctx, ScfConfig(tol=1e-4))
    x1, theta = mixing_iteration([ctx], x0)
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
    x0 = scf_solve(ctxs[0])
    x0p = _prolong_iterate(x0, ctxs[0].space, ctxs[1].space)
    x1, theta = mixing_iteration(ctxs, x0p)
    assert theta < 1.0
    assert resi(ctxs[1], x1) <= resi(ctxs[1], x0p)


def test_mixing_stagnation_error():
    ctx = ctx_1d(n=8, zeta=1.0)
    x_star = scf_solve(ctx, ScfConfig(tol=1e-12))
    # at the exact solution every damped move away increases the residual,
    # except theta ~ 0; a large theta_min forces stagnation
    params = MixingParams(theta_init=1.0, theta_min=0.9)
    u = x_star.u.copy()
    u[ctx.space.interior_dofs] *= 1.5
    x0 = IterateX(lam=x_star.lam * 2.0, u=u)
    try:
        x1, theta = mixing_iteration([ctx], x0, params=params)
        assert resi(ctx, x1) <= resi(ctx, x0)
    except StagnationError as err:
        assert err.resi_old is not None and err.resi_new is not None


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
    oracle = scf_solve(ctxs[-1], ScfConfig(tol=1e-12, max_outer=2000))
    assert abs(x.lam - oracle.lam) <= 1e-8
