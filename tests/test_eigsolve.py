import numpy as np
import pytest
import scipy.linalg as sla

from gpmg.assembly import FemSpace, Operators, assemble_mass, assemble_stiffness
from gpmg.eigsolve import ScfConfig, scf_solve, smallest_eigpair
from gpmg.errors import NonConvergenceError, ResourceLimitError
from gpmg.expr import parse
from gpmg.mesh import BoxDomain, build_initial_mesh
from gpmg.nonlinearity import Nonlinearity


def interior_pencil(n=32, dim=1):
    space = FemSpace(build_initial_mesh(BoxDomain.unit(dim), (n,) * dim), 2)
    ix = space.interior_dofs
    k = assemble_stiffness(space)[ix][:, ix].tocsr()
    m = assemble_mass(space)[ix][:, ix].tocsr()
    return space, k, m


def test_smallest_eigpair_matches_dense():
    _, k, m = interior_pencil()
    lam, u = smallest_eigpair(k, m)
    vals, vecs = sla.eigh(k.toarray(), m.toarray())
    assert np.isclose(lam, vals[0], rtol=1e-10)
    v = vecs[:, 0] / np.sqrt(vecs[:, 0] @ (m @ vecs[:, 0]))
    assert min(np.linalg.norm(u - v), np.linalg.norm(u + v)) <= 1e-7


def test_smallest_eigpair_iterative_path():
    _, k, m = interior_pencil(n=64)
    dense = smallest_eigpair(k, m, ScfConfig(inner="dense_fallback"))
    iterative = smallest_eigpair(k, m, ScfConfig(inner="inverse_iteration"))
    assert np.isclose(dense[0], iterative[0], rtol=1e-9)


def test_1d_laplacian_eigenvalue():
    _, k, m = interior_pencil(n=64)
    lam, _ = smallest_eigpair(k, m)
    assert abs(lam - np.pi**2) < 1e-6


def test_scf_linear_problem_equals_eigensolve():
    space, k, m = interior_pencil(n=16)
    nl = Nonlinearity(zeta=0.0)
    x = scf_solve(Operators(space, nl))
    lam, _ = smallest_eigpair(k, m)
    assert np.isclose(x.lam, lam, rtol=1e-12)
    assert x.scf_iterations == 0


def test_scf_normalization_and_sign():
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (24,)), 2)
    nl = Nonlinearity(zeta=10.0)
    ops = Operators(space, nl, potential=parse("x1^2", 1))
    x = scf_solve(ops)
    mass = ops.mass
    assert abs(x.u @ (mass @ x.u) - 1.0) <= 1e-10
    assert float(np.sum(mass @ x.u)) >= 0.0  # sign convention
    # the nonlinear Rayleigh identity at the converged iterate
    assert np.isclose(x.lam, ops.rayleigh_lambda(x.u), rtol=1e-12)


def test_scf_residual_small_at_convergence():
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (16,)), 2)
    nl = Nonlinearity(zeta=5.0)
    ops = Operators(space, nl)
    x = scf_solve(ops, ScfConfig(tol=1e-12))
    r = ops.residual(x.lam, x.u)
    assert np.max(np.abs(r[space.interior_dofs])) <= 1e-9


def test_scf_nonconvergence_error():
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (16,)), 1)
    nl = Nonlinearity(zeta=50.0)
    with pytest.raises(NonConvergenceError):
        scf_solve(Operators(space, nl), ScfConfig(tol=1e-13, max_outer=2))


def test_scf_dof_cap():
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (64,)), 1)
    with pytest.raises(ResourceLimitError):
        scf_solve(Operators(space, Nonlinearity(zeta=1.0)),
                  ScfConfig(dof_cap=10))


def test_scf_strong_coupling_backs_off_damping():
    # zeta large enough that undamped iteration oscillates
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (16,)), 2)
    nl = Nonlinearity(zeta=200.0)
    ops = Operators(space, nl)
    x = scf_solve(ops, ScfConfig(alpha=1.0))
    assert abs(x.u @ (ops.mass @ x.u) - 1.0) <= 1e-10
    r = ops.residual(x.lam, x.u)
    assert np.max(np.abs(r[space.interior_dofs])) <= 1e-8
