import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gpmg.assembly import FemSpace, Operators, assemble_mass, assemble_stiffness
from gpmg.eigsolve import scf_solve
from gpmg.errors import CoercivityError, ConfigurationError, SolverError
from gpmg.expr import parse
from gpmg.linsolve import (
    MG_CG_CROSSOVER,
    BorderedSystem,
    SolverConfig,
    SpdSolver,
    VCycleHierarchy,
    factor_symmetric,
    solve_bordered,
)
from gpmg.mesh import BoxDomain, build_hierarchy, build_initial_mesh
from gpmg.newton import (
    _build_vcycle,
    _newton_matrix,
    _prolong_iterate,
    assemble_newton_system,
    build_contexts,
    newton_step,
)
from gpmg.nonlinearity import Nonlinearity


def poisson_hierarchy(n0=4, levels=3, dim=2):
    from gpmg.assembly import prolongation_matrix

    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, levels)
    spaces = [FemSpace(m, 1) for m in hier.levels]
    mats, prolongs = [], []
    for i, space in enumerate(spaces):
        ix = space.interior_dofs
        mats.append(assemble_stiffness(space)[ix][:, ix].tocsr())
        if i > 0:
            p = prolongation_matrix(spaces[i - 1], space)
            prolongs.append(p[ix][:, spaces[i - 1].interior_dofs].tocsr())
    return mats, prolongs


def test_direct_cg_mgcg_agree():
    mats, prolongs = poisson_hierarchy()
    k = mats[-1]
    rng = np.random.default_rng(0)
    b = rng.standard_normal(k.shape[0])
    x_dir = SpdSolver(k, SolverConfig(method="direct")).solve(b)
    x_cg = SpdSolver(k, SolverConfig(method="cg")).solve(b)
    vc = VCycleHierarchy(mats, prolongs)
    mg = SpdSolver(k, SolverConfig(method="mg_cg"), vcycle=vc)
    x_mg = mg.solve(b)
    assert np.allclose(x_dir, x_cg, atol=1e-8)
    assert np.allclose(x_dir, x_mg, atol=1e-8)
    # the one ||K||_inf that solve_bordered also scales its check by
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
    mats, _ = poisson_hierarchy()
    with pytest.raises(ConfigurationError):
        SpdSolver(mats[-1], SolverConfig(method="mg_cg")).solve(
            np.ones(mats[-1].shape[0]))


@pytest.mark.parametrize("dim,degree,crossover", [
    (2, 1, 200_000),  # p1_2d_mgcg: direct on levels 2-5, mg_cg on level 6
    (2, 2, 50_000),
    (3, 1, 3_000),
    (3, 2, 2_000),
])
def test_auto_switches_to_mg_cg_at_its_crossover(dim, degree, crossover):
    auto = SolverConfig()
    assert auto.resolved_method(crossover, dim, degree) == "direct"
    assert auto.resolved_method(crossover + 1, dim, degree) == "mg_cg"
    for method in ("direct", "cg", "mg_cg"):
        cfg = SolverConfig(method=method)
        for n in (crossover, crossover + 1):
            assert cfg.resolved_method(n, dim, degree) == method


@pytest.mark.parametrize("degree", [1, 2])
def test_auto_never_picks_mg_cg_in_1d(degree):
    for n in (1, 10**4, 10**6, 10**9):
        assert SolverConfig().resolved_method(n, 1, degree) == "direct"


@pytest.mark.parametrize("limit,method", [(49, "direct"), (48, "mg_cg")])
def test_newton_step_solves_with_the_method_auto_resolves(monkeypatch, limit,
                                                          method):
    # level 2 of a 2D P1 hierarchy from 4x4 cells has 49 interior dofs
    monkeypatch.setitem(MG_CG_CROSSOVER, (2, 1), limit)
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 2)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0))
    x0 = _prolong_iterate(scf_solve(ctxs[0]), ctxs[0].space, ctxs[1].space)
    seen = []
    init = SpdSolver.__init__

    def recording_init(self, k, cfg, vcycle=None):
        init(self, k, cfg, vcycle)
        seen.append(self.method)

    monkeypatch.setattr(SpdSolver, "__init__", recording_init)
    newton_step(ctxs, x0)
    assert seen == [method]


def test_cg_failure_reports_achieved_residual():
    mats, _ = poisson_hierarchy(levels=3)
    k = mats[-1]
    b = np.ones(k.shape[0])
    with pytest.raises(SolverError) as exc:
        SpdSolver(k, SolverConfig(method="cg", max_iter=2)).solve(b)
    assert exc.value.achieved is not None


def random_bordered(rng, n):
    a = rng.standard_normal((n, n))
    k = sp.csr_matrix(a @ a.T + n * np.eye(n))
    m = rng.standard_normal(n)
    r = rng.standard_normal(n)
    c = rng.standard_normal()
    return BorderedSystem(k=k, m=m, r=r, c=c)


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
    u, lam = solve_bordered(system)
    assert u.shape == (10,)
    assert np.isscalar(lam) or np.ndim(lam) == 0


def test_bordered_rejects_zero_border():
    rng = np.random.default_rng(4)
    system = random_bordered(rng, 6)
    system = BorderedSystem(k=system.k, m=np.zeros(6), r=system.r, c=system.c)
    with pytest.raises(ConfigurationError):
        solve_bordered(system)


def test_indefinite_matrix_coercivity_error_on_iterative_path():
    # K with a negative eigenvalue and m its eigenvector: m' K^-1 m < 0
    d = np.array([-1.0, 2.0, 3.0, 4.0])
    k = sp.csr_matrix(np.diag(d))
    m = np.array([1.0, 0.0, 0.0, 0.0])
    system = BorderedSystem(k=k, m=m, r=np.ones(4), c=0.0)
    with pytest.raises((CoercivityError, SolverError)):
        solve_bordered(system, SolverConfig(method="cg", max_iter=50))
    # the direct path still produces the verified saddle-point solution
    sol = solve_bordered(system, SolverConfig(method="direct"))
    assert sol.schur < 0
    assert np.allclose(k @ sol.u - sol.lam * m, np.ones(4), atol=1e-10)


def test_backward_error_contract_near_singular():
    # K - lam M with lam near a generalized eigenvalue: direct solve must
    # still satisfy the backward-error contract via refinement
    from gpmg.mesh import build_initial_mesh

    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (32,)), 1)
    ix = space.interior_dofs
    k = assemble_stiffness(space)[ix][:, ix].tocsr()
    m = assemble_mass(space)[ix][:, ix].tocsr()
    import scipy.linalg as sla

    vals = sla.eigh(k.toarray(), m.toarray(), eigvals_only=True)
    shifted = (k - (vals[0] * (1 + 1e-7)) * m).tocsr()
    b = np.ones(shifted.shape[0])
    x = SpdSolver(shifted, SolverConfig(method="direct")).solve(b)
    knorm = np.max(np.abs(shifted).sum(axis=1))
    res = np.linalg.norm(shifted @ x - b)
    assert res <= 1e-10 * (knorm * np.linalg.norm(x) + np.linalg.norm(b))


def newton_hierarchy():
    """Interior Newton matrices of a 3-level 2D P1 problem (zeta = 1) at
    an iterate one Newton step into level 2, prolongated to level 3."""
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 3)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0),
                          potential=parse("x1^2 + 2*x2^2", 2))
    x = _prolong_iterate(scf_solve(ctxs[0]), ctxs[0].space, ctxs[1].space)
    x = newton_step(ctxs[:2], x)
    x = _prolong_iterate(x, ctxs[1].space, ctxs[2].space)
    k = assemble_newton_system(ctxs[2], x).k
    vc = _build_vcycle(ctxs, x, k, SolverConfig())
    return vc.mats, vc.prolongs


def reference_vcycle(mats, prolongs, b, pre=2, post=2):
    """The V-cycle with a triangular solve per Gauss-Seidel sweep and a
    dense coarse solve."""
    def cycle(lvl, b):
        k = mats[lvl]
        if lvl == 0:
            return np.linalg.solve(k.toarray(), b)
        x = np.zeros_like(b)
        for _ in range(pre):
            x += spla.spsolve_triangular(sp.tril(k, format="csr"), b - k @ x,
                                         lower=True)
        p = prolongs[lvl - 1]
        x += p @ cycle(lvl - 1, p.T @ (b - k @ x))
        for _ in range(post):
            x += spla.spsolve_triangular(sp.triu(k, format="csr"), b - k @ x,
                                         lower=False)
        return x

    return cycle(len(mats) - 1, b)


def vcycle_asymmetry(vc, rng):
    x, y = rng.standard_normal((2, vc.mats[-1].shape[0]))
    vx, vy = vc.apply(x), vc.apply(y)
    return abs(y @ vx - x @ vy) / (np.linalg.norm(y) * np.linalg.norm(vx))


@pytest.mark.parametrize("sweeps", [1, 2, 3], ids=lambda n: f"{n}x{n}")
@pytest.mark.parametrize("build", [
    lambda: poisson_hierarchy(levels=4),
    newton_hierarchy,
], ids=["poisson", "newton"])
def test_vcycle_matches_triangular_solve_reference(build, sweeps):
    # the first pre-sweep skips the matvec with the zero start: an off-by-one
    # in the sweep count shows at every count
    mats, prolongs = build()
    vc = VCycleHierarchy(mats, prolongs, pre_smooth=sweeps,
                         post_smooth=sweeps)
    rng = np.random.default_rng(5)
    for _ in range(3):
        b = rng.standard_normal(mats[-1].shape[0])
        ref = reference_vcycle(mats, prolongs, b, pre=sweeps, post=sweeps)
        assert np.linalg.norm(vc.apply(b) - ref) <= 1e-12 * np.linalg.norm(ref)
    # CG needs a symmetric preconditioner
    assert vcycle_asymmetry(vc, rng) <= 1e-12


def test_every_vcycle_apply_is_a_cg_iteration(monkeypatch):
    # PCG applies the V-cycle once per iteration and never to a zero vector
    # (as scipy does to learn the dtype of a LinearOperator without one):
    # in a linked-level Riesz norm and in an mg_cg bordered solve
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
    ops.riesz_norm(np.random.default_rng(7).standard_normal(ops.space.n_dofs))
    assert len(applied) == sum(ops._riesz_solver().iteration_counts) > 1
    assert all(applied)

    x = _prolong_iterate(scf_solve(ctxs[0]), ctxs[0].space, ctxs[1].space)
    x = _prolong_iterate(newton_step(ctxs[:2], x), ctxs[1].space,
                         ctxs[2].space)
    system = assemble_newton_system(ops, x)
    vc = _build_vcycle(ctxs, x, system.k, SolverConfig())
    applied.clear()
    solvers.clear()
    solve_bordered(system, SolverConfig(method="mg_cg"), vcycle=vc)
    assert [s.method for s in solvers] == ["mg_cg"]
    assert len(applied) == sum(solvers[0].iteration_counts) > 2
    assert all(applied)


def test_vcycle_symmetry_check_catches_lower_post_sweeps():
    mats, prolongs = poisson_hierarchy(levels=4)
    broken = VCycleHierarchy(mats, prolongs)
    broken.upper = broken.lower
    assert vcycle_asymmetry(broken, np.random.default_rng(6)) > 1e-6


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
    vc = VCycleHierarchy(mats, prolongs)
    # set-up factors the coarse matrix and two triangles per finer level
    assert calls == ["splu"] * (1 + 2 * (len(mats) - 1))
    calls.clear()
    vc.apply(np.ones(mats[-1].shape[0]))
    assert calls == []


def backward_error(a, x, b):
    anorm = float(abs(a).sum(axis=1).max())
    return float(np.linalg.norm(a @ x - b)) / (
        anorm * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))


def h1_interior(dim, degree, cells):
    mesh = build_initial_mesh(BoxDomain.unit(dim), (cells,) * dim)
    ops = Operators(FemSpace(mesh, degree), Nonlinearity(zeta=1.0))
    ix = ops.space.interior_dofs
    return ops.h1_mat[ix][:, ix]


def indefinite_newton_matrix():
    """Newton matrix with lam0 between the 2nd and 3rd eigenvalues of its
    own pencil: two negative eigenvalues."""
    mesh = build_initial_mesh(BoxDomain.unit(2), (8, 8))
    ops = Operators(FemSpace(mesh, 1), Nonlinearity(zeta=1.0),
                    potential=parse("x1^2 + 2*x2^2", 2))
    ix = ops.space.interior_dofs
    u0 = np.zeros(ops.space.n_dofs)
    u0[ix] = 1.0
    k0 = _newton_matrix(ops, 0.0, u0)[ix][:, ix]
    m = ops.mass[ix][:, ix]
    mu = sla.eigh(k0.toarray(), m.toarray(), eigvals_only=True)
    a = _newton_matrix(ops, 0.5 * (mu[1] + mu[2]), u0)[ix][:, ix]
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

