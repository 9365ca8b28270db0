import numpy as np
import pytest
import scipy.sparse as sp

from gpmg.assembly import FemSpace, assemble_mass, assemble_stiffness
from gpmg.errors import CoercivityError, ConfigurationError, SolverError
from gpmg.linsolve import (
    BorderedSystem,
    SolverConfig,
    SpdSolver,
    VCycleHierarchy,
    solve_bordered,
)
from gpmg.mesh import BoxDomain, build_hierarchy


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
    x_mg = SpdSolver(k, SolverConfig(method="mg_cg"), vcycle=vc).solve(b)
    assert np.allclose(x_dir, x_cg, atol=1e-8)
    assert np.allclose(x_dir, x_mg, atol=1e-8)


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
    assert not sol.coercive
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
