"""Finite element spaces and assembly of all discrete operators.

Covers stiffness/mass/weighted-mass matrices, nonlinear load vectors, the
eigenvalue residual functional, its H1 Riesz norm, the energy, and
coarse-to-fine transfer.
Dirichlet conditions are handled by reduction to the interior dof set.
All forms share one kernel: per-cell weights times a reference table that
the space caches per quadrature rule (`RuleTables`).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import expr as expr_mod
from .elements import quadrature, reference_element, shape_gradients, shape_values
from .errors import ConfigurationError, UsageError
from .nonlinearity import F_eval, f_eval

__all__ = [
    "FemSpace",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "assemble_field_weighted_mass",
    "assemble_field_load",
    "evaluate_field",
    "prolongation_matrix",
    "Operators",
]


class FemSpace:
    """Lagrange space (degree 1 or 2) on one mesh level."""

    def __init__(self, mesh, degree):
        if degree not in (1, 2):
            raise ConfigurationError(f"degree must be 1 or 2, got {degree}")
        self.mesh = mesh
        self.degree = degree
        self.elem = reference_element(mesh.dim, degree)

        if degree == 1:
            self.cell_dofs = mesh.cells
            self.dof_coords = mesh.vertices
            boundary = mesh.boundary_vertex_flags.copy()
        else:
            pairs = mesh.cells[:, self.elem.edges]  # (nc, nloc_edges, 2)
            pairs = np.sort(pairs, axis=2).reshape(-1, 2)
            edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
            nloc = len(self.elem.edges)
            edge_ids = inverse.reshape(mesh.n_cells, nloc) + mesh.n_vertices
            self.cell_dofs = np.hstack([mesh.cells, edge_ids])
            mids = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
            self.dof_coords = np.vstack([mesh.vertices, mids])
            boundary = np.zeros(self.dof_coords.shape[0], dtype=bool)
            for i in range(mesh.dim):
                boundary |= (self.dof_coords[:, i] == mesh.domain.lower[i]) | (
                    self.dof_coords[:, i] == mesh.domain.upper[i]
                )
        self.n_dofs = self.dof_coords.shape[0]
        self.boundary_mask = boundary
        self.boundary_dofs = np.where(boundary)[0]
        self.interior_dofs = np.where(~boundary)[0]
        self._geom = None
        self._quad_cache = {}
        self._prolongation_from = {}

    @property
    def dim(self):
        return self.mesh.dim

    # Quadrature degrees: 2p for bilinear terms, 2p+2 for terms
    # carrying a nonconstant coefficient (exact for the cubic GPE weight
    # with P1; a declared variational crime beyond that).
    @property
    def bilinear_degree(self):
        return 2 * self.degree

    @property
    def weighted_degree(self):
        return 2 * self.degree + 2

    def rule(self, exact_degree):
        key = int(exact_degree)
        if key not in self._quad_cache:
            self._quad_cache[key] = RuleTables(self.elem, key)
        return self._quad_cache[key]

    def geometry(self):
        if self._geom is None:
            verts = self.mesh.vertices[self.mesh.cells]
            jac = verts[:, 1:, :] - verts[:, :1, :]  # rows: edge vectors
            det = np.abs(np.linalg.det(jac))
            inv = np.linalg.inv(jac)
            self._geom = (verts, jac, det, inv)
        return self._geom


class RuleTables:
    """A quadrature rule on the reference cell and the tables the forms
    contract against: w, w phi_i (nq, nb), w phi_i phi_j (nq, nb^2), and
    the stiffness table sum_q w d_a phi_i d_b phi_j shaped (d^2, nb^2)."""

    def __init__(self, elem, exact_degree):
        rule = quadrature(elem.dim, exact_degree)
        phi = shape_values(elem, rule.points)
        grad = shape_gradients(elem, rule.points)
        nq, nb = phi.shape
        self.points = rule.points
        self.phi = phi
        self.w = rule.weights
        self.wphi = self.w[:, None] * phi
        self.wphiphi = (self.wphi[:, :, None] * phi[:, None, :]).reshape(nq, -1)
        self.stiffness = np.einsum(
            "q,qia,qjb->abij", self.w, grad, grad
        ).reshape(elem.dim**2, nb * nb)


def _scatter(space, cell_weights, table):
    """The matrix kernel: row c of cell_weights @ table is cell c's element
    matrix, flattened nb x nb."""
    nb = space.elem.n_basis
    rows = np.repeat(space.cell_dofs, nb, axis=1).ravel()
    cols = np.tile(space.cell_dofs, (1, nb)).ravel()
    mat = sp.coo_matrix(
        ((cell_weights @ table).ravel(), (rows, cols)),
        shape=(space.n_dofs, space.n_dofs),
    ).tocsr()
    return (mat + mat.T) * 0.5


def assemble_stiffness(space, a_coeff=None):
    """Stiffness matrix for the constant-SPD diffusion tensor (default I)."""
    d = space.dim
    if a_coeff is None:
        a_coeff = np.eye(d)
    a_coeff = np.asarray(a_coeff, dtype=float)
    if a_coeff.shape != (d, d) or not np.allclose(a_coeff, a_coeff.T):
        raise ConfigurationError("A_coeff must be a symmetric dim x dim matrix")
    if np.any(np.linalg.eigvalsh(a_coeff) <= 0):
        raise ConfigurationError("A_coeff must be positive definite")
    _, _, det, inv = space.geometry()
    # physical gradient is inv @ grad_ref, so the cell metric is inv' A inv
    b = det[:, None, None] * (inv.transpose(0, 2, 1) @ a_coeff @ inv)
    b = (b + b.transpose(0, 2, 1)) * 0.5
    tables = space.rule(space.bilinear_degree)
    return _scatter(space, b.reshape(len(b), d * d), tables.stiffness)


def assemble_mass(space):
    tables = space.rule(space.bilinear_degree)
    _, _, det, _ = space.geometry()
    return _scatter(space, det[:, None] * np.ones(len(tables.w)), tables.wphiphi)


def _weighted_mass(space, vals):
    """Mass matrix weighted by vals (n_cells, nq) at the weighted rule's points."""
    _, _, det, _ = space.geometry()
    tables = space.rule(space.weighted_degree)
    return _scatter(space, vals * det[:, None], tables.wphiphi)


def _spatial_weight_values(space, weight):
    verts, _, _, _ = space.geometry()
    pts = space.rule(space.weighted_degree).points @ verts  # (nc, nq, dim)
    flat = pts.reshape(-1, space.dim)
    if isinstance(weight, expr_mod.Expr):
        vals = expr_mod.evaluate(weight, flat)
    else:
        vals = np.asarray(weight(flat), dtype=float)
    return vals.reshape(pts.shape[0], pts.shape[1])


def assemble_weighted_mass(space, weight):
    """Mass matrix weighted by a spatial function (Expr or callable)."""
    return _weighted_mass(space, _spatial_weight_values(space, weight))


def _field_at_quad(space, u):
    """Values of the FEM field u at the weighted rule's points, (n_cells, nq)."""
    return u[space.cell_dofs] @ space.rule(space.weighted_degree).phi.T


def assemble_field_weighted_mass(space, u, transform):
    """Mass matrix weighted by transform(u(x)) with u a FEM field."""
    return _weighted_mass(space, transform(_field_at_quad(space, u)))


def assemble_field_load(space, u, transform):
    """Load vector (transform(u(x)), phi_i) with u a FEM field."""
    _, _, det, _ = space.geometry()
    g = transform(_field_at_quad(space, u)) * det[:, None]
    elem = g @ space.rule(space.weighted_degree).wphi
    return np.bincount(
        space.cell_dofs.ravel(), weights=elem.ravel(), minlength=space.n_dofs
    )


def evaluate_field(space, u, points):
    """Point evaluation of a FEM field at arbitrary points in the box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cid, bary = space.mesh.locate(pts)
    phi = shape_values(space.elem, bary)  # (npts, nb)
    dofs = space.cell_dofs[cid]  # (npts, nb)
    vals = np.sum(phi * u[dofs], axis=1)
    return vals if np.asarray(points).ndim > 1 else float(vals[0])


def _check_nested(coarse, fine):
    if coarse.degree != fine.degree:
        raise UsageError("prolongation requires equal polynomial degrees")
    if fine.mesh.level != coarse.mesh.level + 1 or any(
        nf != 2 * nc
        for nf, nc in zip(fine.mesh.cells_per_axis, coarse.mesh.cells_per_axis)
    ):
        raise UsageError("fine space is not the refinement of the coarse space")


def prolongation_matrix(coarse, fine):
    """Sparse nodal-interpolation operator V_coarse -> V_fine (exact embedding)."""
    _check_nested(coarse, fine)
    key = id(coarse)
    if key in fine._prolongation_from:
        return fine._prolongation_from[key]
    cid, bary = coarse.mesh.locate(fine.dof_coords)
    phi = shape_values(coarse.elem, bary)
    nb = coarse.elem.n_basis
    rows = np.repeat(np.arange(fine.n_dofs), nb)
    cols = coarse.cell_dofs[cid].ravel()
    p = sp.coo_matrix(
        (phi.ravel(), (rows, cols)), shape=(fine.n_dofs, coarse.n_dofs)
    ).tocsr()
    p.eliminate_zeros()
    fine._prolongation_from[key] = p
    return p


class Operators:
    """One mesh level of a problem: its space, the cached u-independent
    operators, and the lazily factored H1 Riesz solver."""

    def __init__(self, space, nl, potential=None):
        self.space = space
        self.nl = nl
        self._riesz_lu = None
        stiffness = assemble_stiffness(space)
        self.mass = assemble_mass(space)
        self.h1_mat = (stiffness + self.mass).tocsr()
        self.linear_part = stiffness
        if potential is not None:
            vals = _spatial_weight_values(space, potential)
            if not np.isfinite(vals).all():
                raise ConfigurationError(
                    "problem.potential evaluates to inf or nan on the domain"
                )
            self.linear_part = (stiffness + _weighted_mass(space, vals)).tocsr()

    def residual(self, lam, u):
        """Vector of <F(lam,u), phi_i> with boundary rows zeroed."""
        r = self.linear_part @ u - lam * (self.mass @ u)
        if self.nl.zeta != 0:
            r = r + assemble_field_load(
                self.space, u, lambda t: f_eval(self.nl, t**2) * t
            )
        r[self.space.boundary_dofs] = 0.0
        return r

    def riesz_norm(self, functional):
        """H1 norm of the Riesz representative of an interior functional."""
        ix = self.space.interior_dofs
        if self._riesz_lu is None:
            self._riesz_lu = spla.splu(self.h1_mat[ix][:, ix].tocsc())
        r = functional[ix]
        z = self._riesz_lu.solve(r)
        return float(np.sqrt(max(z @ r, 0.0)))

    def l2_norm(self, u):
        return float(np.sqrt(max(u @ (self.mass @ u), 0.0)))

    def h1_norm(self, u):
        """sqrt(u' (K + M) u)."""
        return float(np.sqrt(max(u @ (self.h1_mat @ u), 0.0)))

    def rayleigh_lambda(self, u):
        """lambda = <F(0,u), u> = a(u,u) + (f(u^2)u, u) for mass-normalized
        u with zero boundary values."""
        return float(u @ self.residual(0.0, u))

    def energy(self, u):
        quad = 0.5 * (u @ (self.linear_part @ u))
        _, _, det, _ = self.space.geometry()
        big_f = F_eval(self.nl, _field_at_quad(self.space, u) ** 2) * det[:, None]
        w = self.space.rule(self.space.weighted_degree).w
        quad += 0.5 * float(np.sum(big_f @ w))
        return quad
