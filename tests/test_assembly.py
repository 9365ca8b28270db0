import numpy as np
import pytest

from gpmg.assembly import (
    FemSpace,
    Operators,
    assemble_field_load,
    assemble_field_weighted_mass,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    evaluate_field,
    prolongation_matrix,
)
from gpmg.elements import quadrature, shape_gradients, shape_values
from gpmg.errors import UsageError
from gpmg.expr import evaluate, parse
from gpmg.mesh import BoxDomain, build_hierarchy, build_initial_mesh
from gpmg.newton import _newton_matrix
from gpmg.nonlinearity import F_eval, Nonlinearity, f_eval, fprime_eval


def space_1d(n=8, degree=2):
    return FemSpace(build_initial_mesh(BoxDomain.unit(1), (n,)), degree)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_mass_matrix_integrates_one(dim, degree):
    dom = BoxDomain(dim, (0.0,) * dim, (2.0,) + (1.0,) * (dim - 1))
    space = FemSpace(build_initial_mesh(dom, (3,) * dim), degree)
    m = assemble_mass(space)
    ones = np.ones(space.n_dofs)
    assert np.isclose(ones @ (m @ ones), dom.volume, rtol=1e-12)


def test_1d_p1_stiffness_stencil():
    space = space_1d(4, degree=1)
    k = assemble_stiffness(space).toarray()
    h = 0.25
    interior = space.interior_dofs
    sub = k[np.ix_(interior, interior)]
    expected = (np.diag(np.full(3, 2.0)) + np.diag(np.full(2, -1.0), 1)
                + np.diag(np.full(2, -1.0), -1)) / h
    assert np.allclose(sub, expected, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stiffness_annihilates_constants(dim):
    space = FemSpace(build_initial_mesh(BoxDomain.unit(dim), (2,) * dim), 2)
    k = assemble_stiffness(space)
    assert np.allclose(k @ np.ones(space.n_dofs), 0.0, atol=1e-11)


def test_stiffness_exact_on_linear_field():
    # a(u,u) = ||grad u||^2 = |c|^2 * vol for u = c . x
    space = FemSpace(build_initial_mesh(BoxDomain.unit(2), (3, 3)), 1)
    c = np.array([2.0, -1.0])
    u = space.dof_coords @ c
    k = assemble_stiffness(space)
    assert np.isclose(u @ (k @ u), c @ c, rtol=1e-12)


def test_weighted_mass_against_analytic_integral():
    # int_0^1 x * u(x)^2 dx with u = x (P2 exact): 1/4
    space = space_1d(6)
    mw = assemble_weighted_mass(space, parse("x1", 1))
    u = space.dof_coords[:, 0]
    assert np.isclose(u @ (mw @ u), 0.25, rtol=1e-12)


def test_weighted_mass_accepts_callable():
    space = space_1d(6)
    mw_expr = assemble_weighted_mass(space, parse("x1^2", 1))
    mw_call = assemble_weighted_mass(space, lambda p: p[:, 0] ** 2)
    assert np.allclose(mw_expr.toarray(), mw_call.toarray(), atol=1e-14)


def test_l2_h1_norms_on_interpolated_sine():
    space = space_1d(64)
    ops = Operators(space, Nonlinearity(zeta=0.0))
    u = np.sin(np.pi * space.dof_coords[:, 0])
    assert np.isclose(ops.l2_norm(u), np.sqrt(0.5), rtol=1e-6)
    h1_sq = 0.5 + np.pi**2 * 0.5  # ||u||^2 + ||u'||^2
    assert np.isclose(ops.h1_norm(u), np.sqrt(h1_sq), rtol=1e-5)


def test_energy_of_known_field():
    # E = 1/2 a(u,u) + 1/2 int F(u^2), V=0, f(t)=t: F(t)=t^2/2
    space = space_1d(32)
    nl = Nonlinearity(zeta=1.0)
    u = np.sin(np.pi * space.dof_coords[:, 0])
    want = 0.5 * (np.pi**2 * 0.5) + 0.25 * (3.0 / 8.0)  # int sin^4 = 3/8
    assert np.isclose(Operators(space, nl).energy(u), want, rtol=1e-5)


def test_prolongation_exact_on_coarse_functions():
    hier = build_hierarchy(BoxDomain.unit(2), (2, 2), 3)
    for degree in (1, 2):
        spaces = [FemSpace(m, degree) for m in hier.levels]
        rng = np.random.default_rng(2)
        u = rng.standard_normal(spaces[0].n_dofs)
        v = prolongation_matrix(spaces[0], spaces[1]) @ u
        w = prolongation_matrix(spaces[1], spaces[2]) @ v
        pts = rng.random((50, 2))
        assert np.allclose(evaluate_field(spaces[0], u, pts),
                           evaluate_field(spaces[2], w, pts), atol=1e-12)


def test_prolongation_requires_nested_spaces():
    m1 = build_initial_mesh(BoxDomain.unit(1), (4,))
    m2 = build_initial_mesh(BoxDomain.unit(1), (6,))
    with pytest.raises(UsageError):
        prolongation_matrix(FemSpace(m1, 1), FemSpace(m2, 1))


def test_interpolate_field_between_degrees():
    mesh = build_initial_mesh(BoxDomain.unit(1), (8,))
    p1, p2 = FemSpace(mesh, 1), FemSpace(mesh, 2)
    u1 = p1.dof_coords[:, 0]  # linear: exactly representable in both
    u2 = evaluate_field(p1, u1, p2.dof_coords)
    assert np.allclose(u2, p2.dof_coords[:, 0], atol=1e-13)


def test_residual_zero_at_linear_eigenpair():
    import scipy.linalg as sla

    space = space_1d(16)
    nl = Nonlinearity(zeta=0.0)
    k = assemble_stiffness(space).toarray()
    m = assemble_mass(space).toarray()
    ix = space.interior_dofs
    vals, vecs = sla.eigh(k[np.ix_(ix, ix)], m[np.ix_(ix, ix)])
    u = np.zeros(space.n_dofs)
    u[ix] = vecs[:, 0]
    r = Operators(space, nl).residual(vals[0], u)
    assert np.max(np.abs(r)) <= 1e-10
    assert np.allclose(r[space.boundary_dofs], 0.0)


def test_residual_linear_in_functional_scaling():
    space = space_1d(8)
    nl = Nonlinearity(zeta=0.0)
    u = np.zeros(space.n_dofs)
    u[space.interior_dofs] = 1.0
    ops = Operators(space, nl)
    r1 = ops.residual(0.0, u)
    r2 = ops.residual(0.0, 2.0 * u)
    assert np.allclose(r2, 2.0 * r1, atol=1e-13)


@pytest.mark.parametrize("dim,cells,potential", [
    (1, (8,), "x1^2"),
    (3, (3, 3, 3), "x1^2 + 2*x2^2 + 4*x3^2"),
], ids=["1d-p2", "3d-p2"])
def test_riesz_norm_matches_dense_solve(dim, cells, potential):
    # ||R r||_H1 = sqrt(r_I (K + M)_II^-1 r_I): the potential does not enter
    space = FemSpace(build_initial_mesh(BoxDomain.unit(dim), cells), 2)
    ops = Operators(space, Nonlinearity(zeta=1.0),
                    potential=parse(potential, dim))
    ix = space.interior_dofs
    h1 = (assemble_stiffness(space) + assemble_mass(space)).toarray()[
        np.ix_(ix, ix)]
    rng = np.random.default_rng(dim)
    for _ in range(2):  # the second call reuses the cached factorization
        r = np.zeros(space.n_dofs)
        r[ix] = rng.standard_normal(ix.size)
        want = np.sqrt(r[ix] @ np.linalg.solve(h1, r[ix]))
        assert np.isclose(ops.riesz_norm(r), want, rtol=1e-12, atol=0.0)


def test_operators_rayleigh_identity():
    space = space_1d(16)
    nl = Nonlinearity(zeta=1.3)
    ops = Operators(space, nl, potential=parse("x1^2", 1))
    rng = np.random.default_rng(4)
    u = np.zeros(space.n_dofs)
    u[space.interior_dofs] = rng.standard_normal(space.interior_dofs.size)
    u /= ops.l2_norm(u)
    lam = ops.rayleigh_lambda(u)
    # lambda must make the residual M-orthogonal to u
    r = ops.residual(lam, u)
    assert abs(u @ r) <= 1e-12 * max(1.0, abs(lam))


# Reference assembly: the per-cell einsum formulas the table kernel
# replaced, accumulated into dense matrices.
def _ref_rule(space, degree):
    rule = quadrature(space.dim, degree)
    pts = rule.points
    return rule.weights, shape_values(space.elem, pts), shape_gradients(
        space.elem, pts), pts


def _ref_matrix(space, elem):
    nb = space.elem.n_basis
    rows = np.repeat(space.cell_dofs, nb, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nb)).ravel()
    mat = np.zeros((space.n_dofs, space.n_dofs))
    np.add.at(mat, (rows, cols), elem.ravel())
    return (mat + mat.T) * 0.5


def _ref_stiffness(space, a):
    w, _, grad, _ = _ref_rule(space, space.bilinear_degree)
    _, _, det, inv = space.geometry()
    t = np.einsum("q,qia,qjb->ijab", w, grad, grad)
    b = np.einsum("c,cka,kl,clb->cab", det, inv, a, inv)
    b = (b + b.transpose(0, 2, 1)) * 0.5
    return _ref_matrix(space, np.einsum("ijab,cab->cij", t, b))


def _ref_quad_values(space, u):
    w, phi, _, _ = _ref_rule(space, space.weighted_degree)
    return np.einsum("ci,qi->cq", u[space.cell_dofs], phi), w, phi


def _ref_weighted_mass(space, vals):
    w, phi, _, _ = _ref_rule(space, space.weighted_degree)
    _, _, det, _ = space.geometry()
    return _ref_matrix(space, np.einsum("cq,q,qi,qj->cij",
                                        vals * det[:, None], w, phi, phi))


def _ref_potential_values(space, potential):
    _, _, _, pts = _ref_rule(space, space.weighted_degree)
    verts, _, _, _ = space.geometry()
    phys = np.einsum("qk,ckd->cqd", pts, verts)
    return evaluate(potential, phys.reshape(-1, space.dim)).reshape(
        phys.shape[:2])


def _ref_load(space, g):
    w, phi, _, _ = _ref_rule(space, space.weighted_degree)
    _, _, det, _ = space.geometry()
    elem = np.einsum("cq,q,qi->ci", g * det[:, None], w, phi)
    vec = np.zeros(space.n_dofs)
    np.add.at(vec, space.cell_dofs.ravel(), elem.ravel())
    return vec


def _assert_close(got, want):
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


KERNEL_CASES = {
    2: ((3, 2), [[2.0, 0.5], [0.5, 1.0]], "x1^2 + 2*x2^2 + sin(3*x1*x2)"),
    3: ((2, 2, 2), [[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]],
        "x1^2 + 2*x2^2 + 4*x3^2 + sin(2*pi*x3)^2"),
}


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def kernel_case(request):
    dim = request.param
    cells, a, potential = KERNEL_CASES[dim]
    dom = BoxDomain(dim, (0.0,) * dim, (1.5,) + (1.0,) * (dim - 1))
    space = FemSpace(build_initial_mesh(dom, cells), 2)
    u = np.random.default_rng(dim).standard_normal(space.n_dofs)
    return space, np.array(a), parse(potential, dim), u


def test_kernel_matches_einsum_reference(kernel_case):
    space, a, potential, u = kernel_case
    _assert_close(assemble_stiffness(space, a), _ref_stiffness(space, a))
    _assert_close(assemble_mass(space), _ref_weighted_mass(
        space, np.ones((space.mesh.n_cells, 1))))
    _assert_close(assemble_weighted_mass(space, potential), _ref_weighted_mass(
        space, _ref_potential_values(space, potential)))
    uq, _, _ = _ref_quad_values(space, u)
    _assert_close(assemble_field_weighted_mass(space, u, lambda t: 1.0 + t**2),
                  _ref_weighted_mass(space, 1.0 + uq**2))
    _assert_close(assemble_field_load(space, u, lambda t: t**3),
                  _ref_load(space, uq**3))


def test_energy_matches_einsum_reference(kernel_case):
    space, _, potential, u = kernel_case
    nl = Nonlinearity(zeta=2.5)
    ops = Operators(space, nl, potential=potential)
    linear = _ref_stiffness(space, np.eye(space.dim)) + _ref_weighted_mass(
        space, _ref_potential_values(space, potential))
    uq, w, _ = _ref_quad_values(space, u)
    _, _, det, _ = space.geometry()
    want = 0.5 * (u @ (linear @ u)) + 0.5 * np.einsum(
        "cq,q,c->", F_eval(nl, uq**2), w, det)
    assert np.isclose(ops.energy(u), want, rtol=1e-13, atol=0.0)


def test_newton_matrix_sums_the_separate_masses(kernel_case):
    space, _, potential, u = kernel_case
    nl = Nonlinearity(zeta=2.5)
    ctx = Operators(space, nl, potential=potential)
    lam0 = 3.7
    want = (ctx.linear_part - lam0 * ctx.mass
            + assemble_field_weighted_mass(space, u, lambda t: f_eval(nl, t**2))
            + 2.0 * assemble_field_weighted_mass(
                space, u, lambda t: fprime_eval(nl, t**2) * t**2))
    _assert_close(_newton_matrix(ctx, lam0, u), want.toarray())
