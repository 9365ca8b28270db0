import numpy as np
import pytest
import scipy.linalg as sla

import gpmg.eigsolve as eigsolve_mod
from gpmg.assembly import (
    FemSpace,
    Operators,
    assemble_field_load,
    assemble_mass,
    assemble_stiffness,
)
from gpmg.eigsolve import ScfConfig, scf_solve, smallest_eigpair
from gpmg.errors import NonConvergenceError, ResourceLimitError
from gpmg.expr import parse
from gpmg.mesh import BoxDomain, build_initial_mesh
from gpmg.nonlinearity import Nonlinearity
from field_oracle import energy
from scf_oracle import scf_oracle

EX1_POTENTIAL = "x1^2 + 2*x2^2 + 4*x3^2"
EX2_POTENTIAL = ("x1^2 + x2^2 + x3^2 + sin(2*pi*x1)^2 + sin(2*pi*x2)^2"
                 " + sin(2*pi*x3)^2")


def interior_pencil(n=32, dim=1):
    space = FemSpace(build_initial_mesh(BoxDomain.unit(dim), (n,) * dim), 2)
    return space, assemble_stiffness(space), assemble_mass(space)


def test_smallest_eigpair_matches_dense():
    _, k, m = interior_pencil()
    lam, u = smallest_eigpair(k, m)
    vals, vecs = sla.eigh(k.toarray(), m.toarray())
    assert np.isclose(lam, vals[0], rtol=1e-10)
    v = vecs[:, 0] / np.sqrt(vecs[:, 0] @ (m @ vecs[:, 0]))
    assert min(np.linalg.norm(u - v), np.linalg.norm(u + v)) <= 1e-7


def test_smallest_eigpair_iterative_path(monkeypatch):
    _, k, m = interior_pencil(n=64)
    dense = smallest_eigpair(k, m)
    monkeypatch.setattr(eigsolve_mod, "DENSE_EIG_LIMIT", 0)
    lam, v = smallest_eigpair(k, m)
    assert np.isclose(dense[0], lam, rtol=1e-9)
    assert np.isclose(v @ (m @ v), 1.0, rtol=1e-12)
    assert np.linalg.norm(k @ v - lam * (m @ v)) <= 1e-12 * np.linalg.norm(v)


def test_smallest_eigpair_iterative_path_is_deterministic(monkeypatch):
    # ARPACK starts from a fixed vector, not a random one
    _, k, m = interior_pencil(n=8, dim=2)
    monkeypatch.setattr(eigsolve_mod, "DENSE_EIG_LIMIT", 0)
    (lam1, v1), (lam2, v2) = smallest_eigpair(k, m), smallest_eigpair(k, m)
    assert lam1 == lam2 and np.array_equal(v1, v2)


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
    assert abs(ops.l2_norm(x.u) - 1.0) <= 1e-10
    # sign convention: the integral of u, (1, phi_i) u_i, is positive
    ones_load = assemble_field_load(space, x.u, np.ones_like)
    assert ones_load @ x.u[space.interior_dofs] > 0.0
    # the nonlinear Rayleigh identity at the converged iterate
    assert np.isclose(x.lam, ops.rayleigh_lambda(x.u), rtol=1e-12)


def test_scf_residual_small_at_convergence():
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (16,)), 2)
    nl = Nonlinearity(zeta=5.0)
    ops = Operators(space, nl)
    x = scf_solve(ops, ScfConfig(tol=1e-12))
    r = ops.residual(x.lam, x.u)
    assert r.shape == space.interior_dofs.shape
    assert np.max(np.abs(r)) <= 1e-9


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


def test_scf_strong_coupling_climbs_the_ladder():
    # zeta = 200 climbs 0.2, 2, 20, 200 within the default step budget
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (16,)), 2)
    nl = Nonlinearity(zeta=200.0)
    ops = Operators(space, nl)
    x = scf_solve(ops)
    assert eigsolve_mod._zeta_ladder(200.0) == [0.2, 2.0, 20.0, 200.0]
    assert ops.nl is nl  # the rungs leave the shared level untouched
    assert abs(ops.l2_norm(x.u) - 1.0) <= 1e-10
    r = ops.residual(x.lam, x.u)
    assert np.max(np.abs(r)) <= 1e-8


def _coarse_ops(potential, n0, zeta):
    space = FemSpace(build_initial_mesh(BoxDomain.unit(3), (n0,) * 3), 2)
    return Operators(space, Nonlinearity(zeta=zeta),
                     potential=parse(potential, 3))


@pytest.mark.parametrize("potential, n0, zeta", [
    (EX2_POTENTIAL, 2, 1.0),
    (EX2_POTENTIAL, 2, 10.0),
    (EX2_POTENTIAL, 2, 100.0),
    (EX1_POTENTIAL, 4, 100.0),
], ids=["ex2-1", "ex2-10", "ex2-100", "ex1-100"])
def test_scf_matches_scf_oracle(potential, n0, zeta):
    # the coarse meshes of example 1 and example 2
    ops = _coarse_ops(potential, n0, zeta)
    x = scf_solve(ops)
    oracle = scf_oracle(ops)
    assert abs(x.lam - oracle.lam) <= 1e-9 * oracle.lam
    assert ops.h1_norm(x.u - oracle.u) <= 1e-7


def test_scf_strong_coupling_finds_the_ground_state():
    # zeta = 1000 on example 2's coarse mesh: one-signed, and below the
    # energy 702.9 of the sign-changing state Newton reaches from afar
    ops = _coarse_ops(EX2_POTENTIAL, 2, 1000.0)
    x = scf_solve(ops)
    u_int = x.u[ops.space.interior_dofs]
    assert np.all(u_int > 0)
    assert energy(ops, x.u) < 702.9
