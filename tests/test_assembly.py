import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gpmg import assembly as assembly_mod
from gpmg.assembly import (
    FemSpace,
    Operators,
    assemble_field_load,
    assemble_field_weighted_mass,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    prolongation_matrix,
)
from gpmg.elements import quadrature, shape_gradients, shape_values
from gpmg.errors import ConfigurationError, UsageError
from gpmg.expr import evaluate, parse
from gpmg.linsolve import ChebyshevSmoother
from gpmg.mesh import BoxDomain, build_hierarchy, build_initial_mesh
from gpmg.newton import _spd_matrix, assemble_newton_system, build_contexts
from gpmg.nonlinearity import Nonlinearity, f_eval, fprime_eval
from gpmg.state import IterateX
from field_oracle import F_eval, energy, evaluate_field
from riesz_bounds import assert_riesz_norm_close


def space_1d(n=8, degree=2):
    return FemSpace(build_initial_mesh(BoxDomain.unit(1), (n,)), degree)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_mass_matrix_integrates_one(dim, degree):
    # on the full einsum reference, whose interior block is the production
    # matrix
    dom = BoxDomain(dim, (0.0,) * dim, (2.0,) + (1.0,) * (dim - 1))
    space = FemSpace(build_initial_mesh(dom, (3,) * dim), degree)
    m = _ref_weighted_mass(space, np.ones((space.mesh.n_cells, 1)))
    ones = np.ones(space.n_dofs)
    volume = np.prod(np.subtract(dom.upper, dom.lower))
    assert np.isclose(ones @ (m @ ones), volume, rtol=1e-12)
    _assert_close(assemble_mass(space), _interior_block(space, m))


def test_1d_p1_stiffness_stencil():
    # the interior block, on the reference and in production
    space = space_1d(4, degree=1)
    k = assemble_stiffness(space).toarray()
    h = 0.25
    sub = _interior_block(space, _ref_stiffness(space, np.eye(1)))
    expected = (np.diag(np.full(3, 2.0)) + np.diag(np.full(2, -1.0), 1)
                + np.diag(np.full(2, -1.0), -1)) / h
    assert np.allclose(sub, expected, atol=1e-13)
    assert np.allclose(k, expected, atol=1e-13)
    _assert_close(k, sub)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stiffness_annihilates_constants(dim):
    space = FemSpace(build_initial_mesh(BoxDomain.unit(dim), (2,) * dim), 2)
    k = _ref_stiffness(space, np.eye(dim))
    assert np.allclose(k @ np.ones(space.n_dofs), 0.0, atol=1e-11)
    _assert_close(assemble_stiffness(space), _interior_block(space, k))


def test_stiffness_exact_on_linear_field():
    # a(u,u) = ||grad u||^2 = |c|^2 * vol for u = c . x
    space = FemSpace(build_initial_mesh(BoxDomain.unit(2), (3, 3)), 1)
    c = np.array([2.0, -1.0])
    u = space.dof_coords @ c
    k = _ref_stiffness(space, np.eye(2))
    assert np.isclose(u @ (k @ u), c @ c, rtol=1e-12)
    _assert_close(assemble_stiffness(space), _interior_block(space, k))


def test_weighted_mass_against_analytic_integral():
    # int_0^1 x * u(x)^2 dx with u = x (1 - x) (P2 exact, zero on the
    # boundary): 1/4 - 2/5 + 1/6 = 1/60
    space = space_1d(6)
    mw = assemble_weighted_mass(space, parse("x1", 1))
    x = space.dof_coords[space.interior_dofs, 0]
    u = x * (1.0 - x)
    assert np.isclose(u @ (mw @ u), 1.0 / 60.0, rtol=1e-12)


def test_ones_load_integrates_a_field():
    # (1, phi_i) u_i over the interior dofs i is the integral of a field u,
    # the sign test of the coarse solve: int_0^1 x (1 - x) dx = 1/6
    space = space_1d(6)
    u = space.dof_coords[:, 0] * (1.0 - space.dof_coords[:, 0])
    ones_load = assemble_field_load(space, u, np.ones_like)
    assert np.isclose(ones_load @ u[space.interior_dofs], 1.0 / 6.0,
                      rtol=1e-13)


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
    assert np.isclose(energy(Operators(space, nl), u), want, rtol=1e-5)


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
    vals, vecs = sla.eigh(k, m)
    u = np.zeros(space.n_dofs)
    u[space.interior_dofs] = vecs[:, 0]
    r = Operators(space, nl).residual(vals[0], u)
    assert r.shape == space.interior_dofs.shape
    assert np.max(np.abs(r)) <= 1e-10


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
    h1 = (assemble_stiffness(space) + assemble_mass(space)).toarray()
    rng = np.random.default_rng(dim)
    for _ in range(2):  # the second call reuses the cached factorization
        r = rng.standard_normal(space.interior_dofs.size)
        want = np.sqrt(r @ np.linalg.solve(h1, r))
        assert np.isclose(ops.riesz_norm(r), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim,degree,n0,potential", [
    (2, 1, 8, "x1^2 + 2*x2^2"),
    (3, 2, 2, "x1^2 + 2*x2^2 + 4*x3^2"),
], ids=["2d-p1", "3d-p2"])
def test_linked_riesz_norm_matches_dense_solve(dim, degree, n0, potential):
    # on linked levels the Riesz solve is V-cycle PCG, not an LU
    hier = build_hierarchy(BoxDomain.unit(dim), (n0,) * dim, 3)
    ctxs = build_contexts(hier, degree, Nonlinearity(zeta=1.0),
                          potential=parse(potential, dim))
    rng = np.random.default_rng(dim)
    for ops in reversed(ctxs):
        h1 = ops.h1.toarray()
        for _ in range(2):
            r = rng.standard_normal(h1.shape[0])
            want = np.sqrt(r @ np.linalg.solve(h1, r))
            assert_riesz_norm_close(ops.riesz_norm(r), want)


def test_riesz_solvers_factor_each_level_once(monkeypatch):
    # level k's V-cycle refines level k-1's: one coarse LU and one
    # smoother per finer level, however many levels solve; the smoothers
    # factor nothing
    hier = build_hierarchy(BoxDomain.unit(2), (4, 4), 4)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0))
    calls, smoothed = [], []
    splu = spla.splu
    for_matrix = ChebyshevSmoother.for_matrix

    def counting_splu(a, *args, **kwargs):
        calls.append(a.shape[0])
        return splu(a, *args, **kwargs)

    def counting_for_matrix(k):
        smoothed.append(k.shape[0])
        return for_matrix(k)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(ChebyshevSmoother, "for_matrix", counting_for_matrix)
    for ops in [ctxs[-1], *ctxs, ctxs[2].with_zeta(3.0)]:
        ops.riesz_norm(np.ones(ops.space.interior_dofs.size))
    sizes = [ops.space.interior_dofs.size for ops in ctxs]
    assert calls == sizes[:1]
    assert smoothed == sizes[1:]


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
    assert abs(u[space.interior_dofs] @ r) <= 1e-12 * max(1.0, abs(lam))


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


def _ref_geometry(space):
    """|det J| and J^-1 per cell by LAPACK, J the cell's edge vectors as
    rows."""
    verts = space.mesh.vertices[space.mesh.cells]
    jac = verts[:, 1:, :] - verts[:, :1, :]
    return np.abs(np.linalg.det(jac)), np.linalg.inv(jac)


def _ref_stiffness(space, a):
    w, _, grad, _ = _ref_rule(space, space.bilinear_degree)
    det, inv = _ref_geometry(space)
    t = np.einsum("q,qia,qjb->ijab", w, grad, grad)
    b = np.einsum("c,cka,kl,clb->cab", det, inv, a, inv)
    b = (b + b.transpose(0, 2, 1)) * 0.5
    return _ref_matrix(space, np.einsum("ijab,cab->cij", t, b))


def _ref_quad_values(space, u):
    w, phi, _, _ = _ref_rule(space, space.weighted_degree)
    return np.einsum("ci,qi->cq", u[space.cell_dofs], phi), w, phi


def _ref_weighted_mass(space, vals):
    w, phi, _, _ = _ref_rule(space, space.weighted_degree)
    det, _ = _ref_geometry(space)
    return _ref_matrix(space, np.einsum("cq,q,qi,qj->cij",
                                        vals * det[:, None], w, phi, phi))


def _ref_potential_values(space, potential):
    _, _, _, pts = _ref_rule(space, space.weighted_degree)
    verts = space.mesh.vertices[space.mesh.cells]
    phys = np.einsum("qk,ckd->cqd", pts, verts)
    return evaluate(potential, phys.reshape(-1, space.dim)).reshape(
        phys.shape[:2])


def _ref_load(space, g):
    w, phi, _, _ = _ref_rule(space, space.weighted_degree)
    det, _ = _ref_geometry(space)
    elem = np.einsum("cq,q,qi->ci", g * det[:, None], w, phi)
    vec = np.zeros(space.n_dofs)
    np.add.at(vec, space.cell_dofs.ravel(), elem.ravel())
    return vec


def _interior_block(space, full):
    """The interior-by-interior block of a dense full-space matrix, or the
    interior entries of a full-space vector."""
    ix = space.interior_dofs
    return full[np.ix_(ix, ix)] if full.ndim == 2 else full[ix]


def _assert_close(got, want):
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


# Boxes with unequal steps, none of them 1.
GEOMETRY_BOXES = {
    1: ((0.3,), (1.7,), (5,)),
    2: ((-1.0, 0.2), (2.0, 1.1), (3, 7)),
    3: ((0.0, -0.5, 0.1), (1.3, 0.5, 0.8), (2, 3, 5)),
}


def _assert_inverse_close(got, want):
    # per matrix, to 1e-14 of its largest entry
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 1e-14 * np.abs(want).max(axis=(1, 2)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_geometry_matches_lapack(dim, monkeypatch):
    # the cached |det J|, and the geometry of each block of 4 cells, which
    # the stiffness metric computes afresh
    monkeypatch.setattr(assembly_mod, "CELL_BLOCK", 4)
    lower, upper, cells = GEOMETRY_BOXES[dim]
    hier = build_hierarchy(BoxDomain(dim, lower, upper), cells, 2)
    for mesh in hier.levels:
        space = FemSpace(mesh, 1)
        want_det, want_inv = _ref_geometry(space)
        np.testing.assert_allclose(space.cell_det(), want_det, rtol=1e-14,
                                   atol=0.0)
        for s in assembly_mod._cell_blocks(mesh.n_cells):
            det, inv = space.geometry(s)
            assert np.array_equal(det, space.cell_det()[s])
            _assert_inverse_close(inv, want_inv[s])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_det_inv_matches_lapack_on_random_jacobians(dim):
    # well conditioned (diagonally dominant), half with negative det
    rng = np.random.default_rng(dim)
    jac = 2.0 * np.eye(dim) + rng.uniform(-0.5, 0.5, (200, dim, dim))
    jac[::2, 0] *= -1.0
    det, inv = assembly_mod._det_inv(jac)
    np.testing.assert_allclose(det, np.linalg.det(jac), rtol=1e-14, atol=0.0)
    _assert_inverse_close(inv, np.linalg.inv(jac))


@pytest.mark.parametrize("dim,upper,cells", [
    (1, (2.0,), (16,)),
    (2, (2.0, 0.5), (8, 16)),
    (3, (1.0, 2.0, 0.25), (4, 4, 8)),
])
def test_cell_det_is_the_step_product_exactly(dim, upper, cells):
    # binary steps: every Kuhn cell's |det J| is the product of the steps,
    # with no rounding (LAPACK's det of the 1x1 matrix 0.125 is 1 ulp high)
    hier = build_hierarchy(BoxDomain(dim, (0.0,) * dim, upper), cells, 2)
    for mesh in hier.levels:
        space = FemSpace(mesh, 1)
        assert np.all(space.cell_det() == np.prod(mesh.steps))
        assert np.all(space.geometry(slice(None))[0] == np.prod(mesh.steps))


@pytest.mark.parametrize("dim,cells", [(1, (5,)), (2, (3, 4)),
                                       (3, (2, 3, 2))])
def test_p2_edge_numbering_matches_rowwise_unique(dim, cells):
    # the edges numbered in the lexicographic order of their sorted vertex
    # pairs, as np.unique(axis=0) numbers them
    dom = BoxDomain(dim, (0.0,) * dim, (1.5,) + (1.0,) * (dim - 1))
    for mesh in build_hierarchy(dom, cells, 2).levels:
        space = FemSpace(mesh, 2)
        pairs = np.sort(mesh.cells[:, space.elem.edges], axis=2)
        edges, inverse = np.unique(pairs.reshape(-1, 2), axis=0,
                                   return_inverse=True)
        edge_ids = inverse.reshape(mesh.n_cells, -1) + mesh.n_vertices
        assert np.array_equal(space.cell_dofs,
                              np.hstack([mesh.cells, edge_ids]))
        mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        assert np.array_equal(space.dof_coords,
                              np.vstack([mesh.vertices, mids]))


KERNEL_CASES = {
    2: ((3, 2), "x1^2 + 2*x2^2 + sin(3*x1*x2)"),
    3: ((2, 2, 2), "x1^2 + 2*x2^2 + 4*x3^2 + sin(2*pi*x3)^2"),
}


@pytest.fixture(params=[2, 3], ids=["2d", "3d"])
def kernel_case(request):
    dim = request.param
    cells, potential = KERNEL_CASES[dim]
    dom = BoxDomain(dim, (0.0,) * dim, (1.5,) + (1.0,) * (dim - 1))
    space = FemSpace(build_initial_mesh(dom, cells), 2)
    u = np.random.default_rng(dim).standard_normal(space.n_dofs)
    return space, parse(potential, dim), u


def test_kernel_matches_einsum_reference(kernel_case):
    # the interior entries of the full einsum references
    space, potential, u = kernel_case
    uq, _, _ = _ref_quad_values(space, u)
    cases = [
        (assemble_stiffness(space), _ref_stiffness(space, np.eye(space.dim))),
        (assemble_mass(space),
         _ref_weighted_mass(space, np.ones((space.mesh.n_cells, 1)))),
        (assemble_weighted_mass(space, potential),
         _ref_weighted_mass(space, _ref_potential_values(space, potential))),
        (assemble_field_weighted_mass(space, u, lambda t: 1.0 + t**2),
         _ref_weighted_mass(space, 1.0 + uq**2)),
        (assemble_field_load(space, u, lambda t: t**3),
         _ref_load(space, uq**3)),
    ]
    for got, want in cases:
        _assert_close(got, _interior_block(space, want))


def test_energy_matches_einsum_reference(kernel_case):
    space, potential, u = kernel_case
    u = np.where(space.boundary_mask, 0.0, u)  # a field
    nl = Nonlinearity(zeta=2.5)
    ops = Operators(space, nl, potential=potential)
    linear = _ref_stiffness(space, np.eye(space.dim)) + _ref_weighted_mass(
        space, _ref_potential_values(space, potential))
    uq, w, _ = _ref_quad_values(space, u)
    det, _ = _ref_geometry(space)
    want = 0.5 * (u @ (linear @ u)) + 0.5 * np.einsum(
        "cq,q,c->", F_eval(nl, uq**2), w, det)
    assert np.isclose(energy(ops, u), want, rtol=1e-13, atol=0.0)


def test_newton_matrix_sums_the_separate_masses(kernel_case):
    _check_newton_matrices(*kernel_case)


def test_negative_potential_shifts_g_by_its_minimum(kernel_case):
    space, potential, u = kernel_case
    _check_newton_matrices(space, parse(f"{potential.source} - 5", space.dim),
                           u)


def _check_newton_matrices(space, potential, u):
    # K = linear part - lam0 M + the field masses; G = K + (lam0 + s) M,
    # SPD, with s = max(0, -min V) over the potential's quadrature values;
    # the system applies K as G p - (lam0 + s) M p
    nl = Nonlinearity(zeta=2.5)
    ctx = Operators(space, nl, potential=potential)
    assert ctx.shift == max(0.0, -_ref_potential_values(space,
                                                        potential).min())
    lam0 = 3.7
    fields = (assemble_field_weighted_mass(space, u,
                                           lambda t: f_eval(nl, t**2))
              + 2.0 * assemble_field_weighted_mass(
                  space, u, lambda t: fprime_eval(nl, t**2) * t**2))
    want = ctx.linear_part - lam0 * ctx.mass + fields
    system = assemble_newton_system(ctx, IterateX(lam=lam0, u=u))
    _assert_close(system.k, want.toarray())
    g = (ctx.linear_part + ctx.shift * ctx.mass + fields).toarray()
    _assert_close(_spd_matrix(ctx, u), g)
    _assert_close(system.g, g)
    assert system.shift == lam0 + ctx.shift
    p = np.random.default_rng(1).standard_normal(ctx.mass.shape[0])
    _assert_close(system.k_matvec(p), want @ p)
    assert np.linalg.eigvalsh(g)[0] > 0.0



# Two oracles for the shared pattern's scatter, which both take each
# cell's upper-triangle rows (`_element_rows`, made as the kernel makes
# them, a block at a time) and build the full-space matrix: they sum the
# entries at (min, max) of the dof pair and mirror the strict upper
# triangle. `_coo_scatter` sums them as a COO matrix; scipy adds a row's
# duplicate entries in the order its unstable per-row sort leaves them
# (rows of more than 16 entries get reordered), so it agrees to round-off.
# `_ordered_scatter` sums them densely in element order, the order the
# kernel's np.add.at uses, so it agrees bit for bit. Production matrices
# are the interior blocks of these.
def _element_rows(space, table, values_of):
    det = space.cell_det()
    return np.vstack([(values_of(s) * det[s, None]) @ table
                      for s in assembly_mod._cell_blocks(space.mesh.n_cells)])


def _upper_entries(space, elem):
    a, b = np.triu_indices(space.elem.n_basis)
    da, db = space.cell_dofs[:, a], space.cell_dofs[:, b]
    return np.minimum(da, db).ravel(), np.maximum(da, db).ravel(), elem.ravel()


def _coo_scatter(space, elem):
    lo, hi, vals = _upper_entries(space, elem)
    upper = sp.coo_matrix((vals, (lo, hi)),
                          shape=(space.n_dofs, space.n_dofs)).tocsr()
    return upper + sp.triu(upper, k=1).T


def _ordered_scatter(space, elem):
    lo, hi, vals = _upper_entries(space, elem)
    upper = np.zeros((space.n_dofs, space.n_dofs))
    np.add.at(upper, (lo, hi), vals)
    return sp.csr_matrix(upper + np.triu(upper, k=1).T)


PATTERN_CASES = {
    "1d-p1": (1, 1, (9,), "x1^2 + sin(3*x1)"),
    "1d-p2": (1, 2, (5,), "x1^2 + sin(3*x1)"),
    "2d-p1": (2, 1, (5, 4), "x1^2 + 2*x2^2 + sin(3*x1*x2)"),
    "2d-p2": (2, 2, (3, 2), "x1^2 + 2*x2^2 + sin(3*x1*x2)"),
    "3d-p1": (3, 1, (3, 3, 2), "x1^2 + 2*x2^2 + 4*x3^2 + sin(2*pi*x3)^2"),
    "3d-p2": (3, 2, (2, 2, 1), "x1^2 + 2*x2^2 + 4*x3^2 + sin(2*pi*x3)^2"),
}
NEWTON_LAMBDA = 3.7
NEWTON_NL = Nonlinearity(zeta=2.5)


@pytest.fixture(params=list(PATTERN_CASES), ids=list(PATTERN_CASES))
def pattern_case(request):
    dim, degree, cells, potential = PATTERN_CASES[request.param]
    dom = BoxDomain(dim, (0.0,) * dim, (1.5,) + (1.0,) * (dim - 1))
    space = FemSpace(build_initial_mesh(dom, cells), degree)
    potential = parse(potential, dim)
    ctx = Operators(space, NEWTON_NL, potential=potential)
    u = np.random.default_rng(dim + 3 * degree).standard_normal(space.n_dofs)
    return ctx, potential, u


def _newton_weight(t):  # the field weight of `_spd_matrix`
    t2 = t**2
    return f_eval(NEWTON_NL, t2) + 2.0 * fprime_eval(NEWTON_NL, t2) * t2


def _forms(ctx, potential, u):
    """The forms on ctx's space, by whatever `_scatter` is in place."""
    return {
        "mass": assemble_mass(ctx.space),
        "stiffness": assemble_stiffness(ctx.space),
        "potential": assemble_weighted_mass(ctx.space, potential),
        "field": assemble_field_weighted_mass(ctx.space, u, _newton_weight),
    }


def _pattern_matrices(ctx, potential, u):
    # the cases' potentials are positive, so the mass shift s is 0
    assert ctx.shift == 0.0
    system = assemble_newton_system(ctx, IterateX(lam=NEWTON_LAMBDA, u=u))
    return {**_forms(ctx, potential, u), "h1": ctx.h1,
            "linear": ctx.linear_part, "spd": _spd_matrix(ctx, u),
            "newton": system.k}


def _with_sums(forms):
    """forms plus the sums Operators, `_spd_matrix` and the Newton
    system's `k` make of them."""
    out = dict(forms)
    out["h1"] = out["stiffness"] + out["mass"]
    out["linear"] = out["stiffness"] + out["potential"]
    out["spd"] = out["linear"] + out["field"]
    out["newton"] = out["spd"] - NEWTON_LAMBDA * out["mass"]
    return out


def _reference_matrices(ctx, potential, u, scatter, monkeypatch):
    """The full-space matrices of scatter's assembly, dense."""
    def matrix(space, table, values_of):
        return scatter(space, _element_rows(space, table, values_of))

    with monkeypatch.context() as patch:
        patch.setattr(assembly_mod, "_scatter", matrix)
        forms = _forms(ctx, potential, u)
    return _with_sums({name: mat.toarray() for name, mat in forms.items()})


def _einsum_matrices(ctx, potential, u):
    """The full-space matrices of the per-cell einsum references."""
    space = ctx.space
    uq, _, _ = _ref_quad_values(space, u)
    return _with_sums({
        "mass": _ref_weighted_mass(space, np.ones((space.mesh.n_cells, 1))),
        "stiffness": _ref_stiffness(space, np.eye(space.dim)),
        "potential": _ref_weighted_mass(
            space, _ref_potential_values(space, potential)),
        "field": _ref_weighted_mass(space, _newton_weight(uq)),
    })


def test_pattern_assembly_matches_coo_assembly(pattern_case, monkeypatch):
    # each production matrix is the interior block of the full-space
    # references: bit for bit against the element-order sums, to 1e-15 of
    # the largest entry against the COO path and to 1e-13 against the
    # einsum path; and exactly symmetric, as the mirror makes every form
    # and hence every sum of forms
    ctx, potential, u = pattern_case
    space = ctx.space
    got = _pattern_matrices(ctx, potential, u)
    coo = _reference_matrices(ctx, potential, u, _coo_scatter, monkeypatch)
    ordered = _reference_matrices(ctx, potential, u, _ordered_scatter,
                                  monkeypatch)
    einsum = _einsum_matrices(ctx, potential, u)
    for name, mat in got.items():
        g = mat.toarray()
        want = _interior_block(space, coo[name])
        assert np.array_equal(g, _interior_block(space, ordered[name])), name
        assert np.abs(g - want).max() <= 1e-15 * np.abs(want).max(), name
        _assert_close(g, _interior_block(space, einsum[name]))
        assert np.array_equal(g, g.T), name


def test_every_matrix_on_a_space_shares_its_pattern(pattern_case):
    ctx, potential, u = pattern_case
    pattern = ctx.space.pattern()
    for name, mat in _pattern_matrices(ctx, potential, u).items():
        assert np.shares_memory(mat.indptr, pattern.indptr), name
        assert np.shares_memory(mat.indices, pattern.indices), name


def _full_pattern(space):
    """The full-space pattern: every dof pair of a cell, sorted columns."""
    nb = space.elem.n_basis
    rows = np.repeat(space.cell_dofs, nb, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nb)).ravel()
    full = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                         shape=(space.n_dofs, space.n_dofs))
    full.sort_indices()
    return full


def test_interior_gather_equals_fancy_slicing(pattern_case):
    # every matrix is one gather from its upper sums into the interior
    # block, whose index arrays are the full-space pattern's, cut to the
    # interior by fancy slicing; the solvers are handed these matrices
    ctx, potential, u = pattern_case
    ix = ctx.space.interior_dofs
    want = _full_pattern(ctx.space)[ix][:, ix]
    want.sort_indices()
    for name, mat in _pattern_matrices(ctx, potential, u).items():
        assert mat.shape == want.shape, name
        assert np.array_equal(mat.indptr, want.indptr), name
        assert np.array_equal(mat.indices, want.indices), name
    x0 = IterateX(lam=NEWTON_LAMBDA, u=u)
    g = assemble_newton_system(ctx, x0).g
    assert np.array_equal(g.data, _spd_matrix(ctx, u).data)
    assert ctx._riesz_solver().k is ctx.h1


def test_no_operator_or_pattern_map_is_full_space_sized(pattern_case):
    # a level stores interior blocks only: every matrix Operators holds is
    # n x n for the n interior dofs, and every map of the pattern has one
    # entry per interior row, per interior nonzero or per upper element
    # entry; the element entries that touch the boundary share one extra
    # bin of the slot sums
    ctx, potential, u = pattern_case
    space = ctx.space
    n = space.interior_dofs.size
    pattern = space.pattern()
    full = _full_pattern(space)
    ix = space.interior_dofs
    assert pattern.shape == (n, n)
    assert pattern.nnz == full[ix][:, ix].nnz < full.nnz
    nb = space.elem.n_basis
    sizes = {"indptr": n + 1, "indices": pattern.nnz,
             "mirror": pattern.nnz,
             "slot": space.mesh.n_cells * nb * (nb + 1) // 2}
    arrays = {name: value for name, value in vars(pattern).items()
              if isinstance(value, np.ndarray)}
    assert {name: a.size for name, a in arrays.items()} == sizes
    assert pattern.slot.max() == pattern.n_upper
    matrices = {name: value for name, value in vars(ctx).items()
                if sp.issparse(value)}
    assert set(matrices) == {"mass", "linear_part", "h1"}
    for name, mat in matrices.items():
        assert mat.shape == (n, n), name
    ctx.riesz_norm(np.ones(n))
    assert ctx._riesz_solver().k is ctx.h1


def _argsort_pattern(cell_dofs, boundary_mask):
    """The interior pattern by one stable argsort of the upper element
    entries' keys row * n + col, the boundary bin's key n * n last; full
    storage as the upper pattern plus its strict part's transpose, its
    data the 1-based upper slots."""
    interior = ~boundary_mask
    n = int(np.count_nonzero(interior))
    number = np.where(interior, np.cumsum(interior) - 1, -1)[cell_dofs]
    a, b = np.triu_indices(cell_dofs.shape[1])
    lo, hi = number[:, a].ravel(), number[:, b].ravel()
    keys = np.minimum(lo, hi) * n + np.maximum(lo, hi)
    keys[np.minimum(lo, hi) < 0] = n * n
    order = np.argsort(keys, kind="stable")
    ids = keys[order]
    first = np.r_[True, ids[1:] != ids[:-1]]
    slot = np.empty(keys.size, dtype=np.int64)
    slot[order] = np.cumsum(first) - 1
    unique = ids[first]
    unique = unique[unique < n * n]
    rows = unique // n
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=n))]
    upper = sp.csr_matrix((np.arange(1, unique.size + 1), unique - rows * n,
                           indptr), shape=(n, n))
    full = upper + sp.triu(upper, k=1).T
    full.sort_indices()
    idx = np.int32 if 2 * unique.size < 2**31 else np.int64
    return {"slot": slot.astype(idx), "mirror": (full.data - 1).astype(idx),
            "indices": full.indices.astype(idx),
            "indptr": full.indptr.astype(idx), "n_upper": unique.size,
            "nnz": full.nnz, "shape": (n, n)}


def _assert_pattern_is(pattern, want):
    for name, value in want.items():
        got = getattr(pattern, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert np.array_equal(got, value), name
        else:
            assert got == value, name


def test_pattern_matches_the_argsort_construction(pattern_case):
    space = pattern_case[0].space
    _assert_pattern_is(space.pattern(), _argsort_pattern(
        space.cell_dofs, space.boundary_mask))


def test_pattern_matches_the_argsort_construction_on_2d_p1_levels():
    # the six levels of the 2D P1 benchmark, 16^2 to 512^2 cubes
    for mesh in build_hierarchy(BoxDomain.unit(2), (16, 16), 6).levels:
        space = FemSpace(mesh, 1)
        pattern = assembly_mod.CsrPattern(space.cell_dofs, space.boundary_mask)
        _assert_pattern_is(pattern, _argsort_pattern(space.cell_dofs,
                                                     space.boundary_mask))


@pytest.mark.parametrize("case", ["2d-p1", "3d-p2"])
def test_pattern_build_sorts_nothing(case, monkeypatch):
    # the slots are found by counting sorts, not by a comparison sort
    dim, degree, cells, _ = PATTERN_CASES[case]
    space = FemSpace(build_initial_mesh(BoxDomain.unit(dim), cells), degree)
    want = _argsort_pattern(space.cell_dofs, space.boundary_mask)

    def refuse(*args, **kwargs):
        raise AssertionError("CsrPattern sorted")

    with monkeypatch.context() as patch:
        for name in ("argsort", "sort", "lexsort", "unique"):
            patch.setattr(np, name, refuse)
        pattern = assembly_mod.CsrPattern(space.cell_dofs,
                                          space.boundary_mask)
    _assert_pattern_is(pattern, want)


# The quadrature kernel walks the cells CELL_BLOCK at a time.
def test_cell_rows_visit_every_cell_once_in_order(monkeypatch):
    # 40 cells in blocks of 7: five full blocks and a partial one. Each
    # block's rows (values times |det J| times the table) are added into
    # the output at their element entries' index, in element order: one
    # entry per bin gives the rows themselves, and colliding bins the
    # bincount of the rows bit for bit
    space = FemSpace(build_initial_mesh(BoxDomain.unit(2), (5, 4)), 1)
    monkeypatch.setattr(assembly_mod, "CELL_BLOCK", 7)
    cells = np.arange(space.mesh.n_cells)
    table = np.array([[1.0, -2.0]])
    seen = []

    def values_of(s):
        seen.append(cells[s])
        return np.sin(cells[s, None] + 0.5)

    rows = np.sin(cells[:, None] + 0.5) * space.cell_det()[:, None] * table
    out = assembly_mod._integrate(space, table, values_of,
                                  np.arange(rows.size), rows.size)
    assert [len(block) for block in seen] == [7] * 5 + [5]
    assert np.array_equal(np.concatenate(seen), cells)
    assert np.array_equal(out, rows.ravel())
    index = np.random.default_rng(0).integers(0, 9, rows.size).astype(
        np.int32)
    out = assembly_mod._integrate(space, table, values_of, index, 11)
    assert np.array_equal(out, np.bincount(index, weights=rows.ravel(),
                                           minlength=11))


def _block_forms(space, potential, u):
    nl = Nonlinearity(zeta=2.5)
    return {
        "mass": assemble_mass(space).data,
        "stiffness": assemble_stiffness(space).data,
        "potential": assemble_weighted_mass(space, potential).data,
        "field": assemble_field_weighted_mass(
            space, u, lambda t: f_eval(nl, t**2)).data,
        "load": assemble_field_load(space, u, lambda t: f_eval(nl, t**2) * t),
        "energy": np.array([energy(Operators(space, nl, potential), u)]),
    }


@pytest.mark.parametrize("case", ["2d-p1", "3d-p2"])
def test_forms_do_not_depend_on_the_block_size(case, monkeypatch):
    # bit for bit in 2D P1; in 3D P2 OpenBLAS may take another kernel for
    # a short block's GEMM, so to a few ulps of the largest entry
    dim, degree, cells, potential = PATTERN_CASES[case]
    dom = BoxDomain(dim, (0.0,) * dim, (1.5,) + (1.0,) * (dim - 1))
    space = FemSpace(build_initial_mesh(dom, cells), degree)
    potential = parse(potential, dim)
    u = np.random.default_rng(dim).standard_normal(space.n_dofs)
    assert space.mesh.n_cells % 7 != 0
    monkeypatch.setattr(assembly_mod, "CELL_BLOCK", space.mesh.n_cells)
    one_block = _block_forms(space, potential, u)
    monkeypatch.setattr(assembly_mod, "CELL_BLOCK", 7)
    blocked = _block_forms(space, potential, u)
    for name, want in one_block.items():
        if degree == 1:
            assert np.array_equal(blocked[name], want), name
        else:
            tol = 4 * np.finfo(float).eps * np.abs(want).max()
            assert np.abs(blocked[name] - want).max() <= tol, name


def test_potential_is_checked_on_every_block(monkeypatch):
    # nan only at x1 > 0.85, in the last column of cells: not in the first
    # block of 7 cells
    space = FemSpace(build_initial_mesh(BoxDomain.unit(2), (5, 4)), 1)
    potential = parse("(0.85 - x1)^0.5", 2)
    monkeypatch.setattr(assembly_mod, "CELL_BLOCK", 7)
    first = assembly_mod._spatial_values(space, potential)(slice(0, 7))
    assert np.isfinite(first).all()
    with pytest.raises(ConfigurationError,
                       match="problem.potential evaluates to inf or nan"):
        Operators(space, Nonlinearity(zeta=1.0), potential=potential)


def test_field_forms_allocate_only_their_output_and_a_few_blocks():
    # a 2D P1 mesh of 12.5 blocks; beyond the kernel's sums (for a matrix,
    # the upper slots, also gathered into full storage) a form holds at
    # most a few blocks' temporaries at once, and nothing per cell
    block = assembly_mod.CELL_BLOCK
    n = int(np.ceil(np.sqrt(12.5 * block / 2)))
    space = FemSpace(build_initial_mesh(BoxDomain.unit(2), (n, n)), 1)
    nl = Nonlinearity(zeta=1.0)
    u = np.random.default_rng(0).standard_normal(space.n_dofs)
    nq = len(space.rule(space.weighted_degree).w)
    cases = [
        (lambda: assemble_field_load(space, u, lambda t: f_eval(nl, t**2) * t),
         space.n_dofs + space.interior_dofs.size),
        (lambda: assemble_field_weighted_mass(
            space, u, lambda t: f_eval(nl, t**2)),
         space.pattern().n_upper + 1 + space.pattern().nnz),
    ]
    for form, output in cases:
        form()  # the geometry, pattern and tables are cached before tracing
        tracemalloc.start()
        try:
            form()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (output + 4 * block * nq)


def test_a_level_retains_a_fixed_budget_per_element_entry():
    # what one 2D P1 level keeps resident, in bytes per element entry
    # (cells x nb^2): `slot` (int32, one per upper entry) 2.7, the int32
    # interior pattern and `mirror` 3.2, the interior mass, linear and H1
    # data 8.9, |det J| 0.9 and the dof lists 0.5, 16.3 in all (18.9 with
    # an intp `slot`, 22.9 with the full-space maps and matrices beside
    # the interior ones). Caching the vertex coordinates again would add
    # 5.3, J^-1 3.6.
    potential = parse("x1^2 + 2*x2^2", 2)
    nl = Nonlinearity(zeta=1.0)
    # a small level first, so that no first-use allocation is traced
    Operators(FemSpace(build_initial_mesh(BoxDomain.unit(2), (4, 4)), 1), nl,
              potential)
    mesh = build_initial_mesh(BoxDomain.unit(2), (64, 64))
    tracemalloc.start()
    try:
        ops = Operators(FemSpace(mesh, 1), nl, potential)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained <= 16.8 * mesh.n_cells * ops.space.elem.n_basis**2
    pattern = ops.space.pattern()
    assert pattern.mirror.dtype == np.int32
    assert pattern.indices.dtype == np.int32
    assert pattern.slot.dtype == np.int32


def test_p2_edge_keys_do_not_overflow_int32_cells():
    # 217^2 = 47,089 vertices: a * n_vertices + b overflows int32 from
    # 46,341 on, so a P2 space on int32 cells must number its edges by
    # int64 keys; it matches the space on an int64 copy of the cells
    mesh = build_initial_mesh(BoxDomain.unit(2), (216, 216))
    assert mesh.cells.dtype == np.int32 and mesh.n_vertices > 46_341
    space = FemSpace(mesh, 2)
    wide = build_initial_mesh(BoxDomain.unit(2), (216, 216))
    wide.cells = wide.cells.astype(np.int64)
    want = FemSpace(wide, 2)
    assert np.array_equal(space.dof_coords, want.dof_coords)
    assert np.array_equal(space.interior_dofs, want.interior_dofs)
    assert np.array_equal(space.cell_dofs, want.cell_dofs)
    # the edge dofs take the cells' int32, not np.unique's intp
    assert space.cell_dofs.dtype == np.int32


def _buffer_bytes(a):
    """The size of the buffer that holds a's data, through any views."""
    while a.base is not None:
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("degree", [1, 2])
def test_prolongation_holds_only_its_nonzeros(degree):
    # the cached prolongation's data and indices are buffers of its nnz
    # entries, not views of one entry per (fine dof, coarse basis function)
    hier = build_hierarchy(BoxDomain.unit(2), (2, 2), 3)
    coarse, fine = (FemSpace(m, degree) for m in hier.levels[1:])
    p = prolongation_matrix(coarse, fine)
    assert p.nnz < fine.n_dofs * coarse.elem.n_basis
    assert np.all(p.data != 0.0)
    for name in ("data", "indices"):
        a = getattr(p, name)
        assert _buffer_bytes(a) == a.nbytes == p.nnz * a.itemsize, name
