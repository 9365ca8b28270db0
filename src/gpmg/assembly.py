"""Finite element spaces and assembly of all discrete operators.

Covers stiffness (identity diffusion), mass and weighted-mass matrices,
nonlinear load vectors, the eigenvalue residual functional, its H1 Riesz
norm, and coarse-to-fine transfer.
Dirichlet conditions are handled by reduction to the interior dof set:
every matrix is the interior-by-interior block, and every vector but a
field is indexed like `FemSpace.interior_dofs`. A field (an iterate) has
one value per dof, zero on the boundary, since the kernel reads it by
`cell_dofs`.
All forms share one kernel (`_integrate`): per-cell weights times |det J|
times a reference table that the space caches per quadrature rule
(`RuleTables`), taken a block of `CELL_BLOCK` cells at a time, each
block's element rows added straight into the output, so no array has one
row per cell. Every matrix on a space is a data array on the space's one
interior CSR pattern (`CsrPattern`, built on first use in linear passes):
a form sums the upper triangles of its element matrices into the upper
slots, gathered into full storage; sums of forms are sums of data arrays.
Of the cell geometry only |det J| is kept.
"""

import copy
import dataclasses

import numpy as np
import scipy.sparse as sp

from . import expr as expr_mod
from .elements import quadrature, reference_element, shape_gradients, shape_values
from .errors import ConfigurationError, UsageError
from .linsolve import (SolverConfig, SpdSolver, VCycleHierarchy, as_float32,
                       dot)
from .nonlinearity import f_eval

__all__ = [
    "FemSpace",
    "assemble_stiffness",
    "assemble_mass",
    "assemble_weighted_mass",
    "assemble_field_weighted_mass",
    "assemble_field_load",
    "prolongation_matrix",
    "Operators",
]

# Relative tolerance of the Riesz solve: as tight as the norm's contract
# (1e-8 relative low, 1e-12 high) needs, and no tighter; measured in
# `Operators.riesz_norm`.
RIESZ_TOL = 1e-3

# Cells per block of the quadrature kernel (`_integrate`). A block's
# largest temporaries are its values at the quadrature points, at most
# 4,096 x 24 doubles = 0.8 MB (3D P2's weighted rule; 0.2 MB for 2D P1's 6
# points), the potential's points, three times that, and its element
# rows, 4,096 x 55 doubles in 3D P2. Timed per form with the earlier
# 64- and 9-point rules on a 2-vCPU Xeon VM (2D P1 at 524,288 cells, 3D
# P2 at 24,576): blocks of 1,024 to 8,192 cells are within noise of each
# other and up to 2.5x faster than one block; from 8,192 on, 3D P2's
# potential points were fresh mappings again and page-faulted on every
# call.
CELL_BLOCK = 4096


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
            # edge (a, b), a < b, is the key a * nv + b: key order is the
            # lexicographic order of the pairs. Keys are int64, since
            # a * nv overflows int32 beyond 46,341 vertices; the edge dofs
            # are int32 like the cells (np.unique's inverse is intp) unless
            # the space has 2^31 dofs
            nv = mesh.n_vertices
            ends = mesh.cells[:, self.elem.edges]  # (nc, nloc_edges, 2)
            keys = (np.minimum(ends[..., 0], ends[..., 1]).astype(np.int64)
                    * nv + np.maximum(ends[..., 0], ends[..., 1]))
            edges, inverse = np.unique(keys.ravel(), return_inverse=True)
            edge_ids = inverse.reshape(keys.shape).astype(
                np.int32 if nv + edges.size < 2**31 else np.int64)
            edge_ids += nv
            self.cell_dofs = np.hstack([mesh.cells, edge_ids])
            a, b = np.divmod(edges, nv)
            mids = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
            self.dof_coords = np.vstack([mesh.vertices, mids])
            boundary = np.zeros(self.dof_coords.shape[0], dtype=bool)
            for i in range(mesh.dim):
                boundary |= (self.dof_coords[:, i] == mesh.domain.lower[i]) | (
                    self.dof_coords[:, i] == mesh.domain.upper[i]
                )
        self.n_dofs = self.dof_coords.shape[0]
        self.boundary_mask = boundary
        self.interior_dofs = np.where(~boundary)[0]
        self._det = None
        self._pattern = None
        self._quad_cache = {}
        self._interior_prolongation_from = {}
        self._interior_prolongation32_from = {}

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

    def geometry(self, s):
        """(det, inv) of the cells in slice s: |det J| and J^-1 for J
        (cells, d, d) the cell's edge vectors as rows. Computed afresh on
        each call, a CELL_BLOCK of cells at a time by the stiffness metric,
        the one reader of J^-1; only |det J| is kept (`cell_det`)."""
        verts = np.take(self.mesh.vertices, self.mesh.cells[s], axis=0)
        det, inv = _det_inv(verts[:, 1:, :] - verts[:, :1, :])
        return np.abs(det), inv

    def cell_det(self):
        """|det J| per cell, cached: the one per-cell array every
        quadrature form reads."""
        if self._det is None:
            self._det = np.empty(self.mesh.n_cells)
            for s in _cell_blocks(self.mesh.n_cells):
                self._det[s] = self.geometry(s)[0]
        return self._det

    def pattern(self):
        """The interior CSR pattern every matrix on this space shares."""
        if self._pattern is None:
            self._pattern = CsrPattern(self.cell_dofs, self.boundary_mask)
        return self._pattern


def _det_inv(jac):
    """Determinant and inverse of each d x d matrix of jac (n, d, d), d <= 3,
    by cofactors: one elementwise pass per entry instead of one LAPACK
    call per matrix."""
    d = jac.shape[-1]
    a = [[jac[:, i, j] for j in range(d)] for i in range(d)]
    if d == 1:
        cof = [[1.0]]
    elif d == 2:
        cof = [[a[1][1], -a[1][0]], [-a[0][1], a[0][0]]]
    else:
        # cyclic indices carry the cofactor signs
        cof = [[a[(i + 1) % 3][(j + 1) % 3] * a[(i + 2) % 3][(j + 2) % 3]
                - a[(i + 1) % 3][(j + 2) % 3] * a[(i + 2) % 3][(j + 1) % 3]
                for j in range(3)] for i in range(3)]
    det = a[0][0] * cof[0][0]
    for j in range(1, d):
        det += a[0][j] * cof[0][j]
    inv = np.empty_like(jac)
    for i in range(d):
        for j in range(d):
            np.divide(cof[j][i], det, out=inv[:, i, j])
    return det, inv


class CsrPattern:
    """The sparsity pattern of the matrices on one space, over its interior
    dofs only, numbered as `FemSpace.interior_dofs` lists them: (`indptr`,
    `indices`) in full storage with sorted columns, and where each element
    entry lands in its data array.

    Every form is symmetric, so a cell contributes only its local pairs
    a <= b, in `np.triu_indices(nb)` order, each to the upper-triangle
    slot of its dof pair (min, max). `slot[e]` is the upper slot of
    element entry e, the entries taken cell by cell; an entry that touches
    a boundary dof goes to slot `n_upper`, one extra bin that no matrix
    reads. `mirror[k]` is the upper slot of data entry k: a form's data
    are its slot sums gathered through `mirror`, so (i, j) and (j, i) read
    one sum and every matrix is symmetric bit for bit. Slots are numbered
    in (row, col) order, found by stable counting sorts (scipy's sparse
    transposition), so the build is linear in the element entries and
    sorts nothing. The maps are int32 below 2^30 element entries. The
    index arrays are read-only: every matrix on the space holds them, so
    an in-place edit of one would corrupt them all."""

    def __init__(self, cell_dofs, boundary_mask):
        interior = ~boundary_mask
        n = int(np.count_nonzero(interior))
        a, b = np.triu_indices(cell_dofs.shape[1])
        size = cell_dofs.shape[0] * a.size
        # nnz < 2 n_upper <= 2 size bounds every index below
        idx = np.int32 if 2 * size < 2**31 else np.int64
        # each element dof's interior number, n on the boundary
        number = np.where(interior, np.cumsum(interior, dtype=idx) - 1,
                          idx(n))[cell_dofs]
        # np.take, unlike [:, a], returns C order, so ravel copies nothing
        lo = np.take(number, a, axis=1).ravel()
        cols = np.take(number, b, axis=1).ravel()
        del number
        rows = np.minimum(lo, cols)
        np.maximum(lo, cols, out=cols)
        del lo
        # an entry with a boundary dof goes to (n, n), after every interior
        # pair
        np.copyto(rows, idx(n), where=cols == n)
        # the entries in (row, col) order by two stable counting sorts,
        # scipy's CSR -> CSC transposition: by col, each entry a row of
        # its own, then by row
        by_col = sp.csr_matrix((rows, cols, np.arange(size + 1, dtype=idx)),
                               shape=(size, n + 1)).tocsc()
        del rows, cols
        by_row = sp.csc_matrix((by_col.indices, by_col.data, by_col.indptr),
                               shape=(n + 1, n + 1)).tocsr()
        del by_col
        # each run of one (row, col) is one upper slot, numbered in order,
        # the boundary bin last; a run also ends where a row does
        cols, starts = by_row.indices, by_row.indptr
        first = np.empty(size, dtype=bool)
        first[0] = True
        np.not_equal(cols[1:], cols[:-1], out=first[1:])
        first[starts[1:n]] = True
        ids = np.cumsum(first, dtype=idx)
        ids -= 1
        self.slot = np.empty(size, dtype=idx)
        self.slot[by_row.data] = ids
        self.n_upper = int(np.count_nonzero(first[:starts[n]]))
        # the upper pattern: row i's slots run from upper_ptr[i]
        upper_ptr = np.append(ids[starts[:n]], self.n_upper).astype(idx)
        upper_cols = cols[first][:self.n_upper]
        del by_row, cols, first, ids
        # full row i is the upper pattern's column i (`lower`, its CSC:
        # rows j <= i, the diagonal last), then its row i after the
        # diagonal; the diagonal is written by both, with the same values
        slots = np.arange(self.n_upper, dtype=idx)
        lower = sp.csr_matrix((slots, upper_cols, upper_ptr),
                              shape=(n, n)).tocsc()
        row_len = np.diff(upper_ptr)
        col_len = np.diff(lower.indptr)
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(col_len + row_len - 1, out=indptr[1:])
        self.shape = (n, n)
        self.nnz = int(indptr[-1])
        self.indptr = indptr
        self.indices = np.empty(self.nnz, dtype=idx)
        self.mirror = np.empty(self.nnz, dtype=idx)
        dest = slots + np.repeat(indptr[:-1] - lower.indptr[:-1], col_len)
        self.indices[dest] = lower.indices
        self.mirror[dest] = lower.data
        dest = slots + np.repeat(indptr[1:] - upper_ptr[1:], row_len)
        self.indices[dest] = upper_cols
        self.mirror[dest] = slots
        for name in ("indices", "indptr"):
            getattr(self, name).flags.writeable = False

    def matrix(self, data):
        """The matrix with this pattern and these data."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


class RuleTables:
    """A quadrature rule on the reference cell and the tables the forms
    contract against: w, w phi_i (nq, nb), and the upper-triangle columns
    (i, j), i <= j in `np.triu_indices(nb)` order, of w phi_i phi_j (nq,
    nb(nb+1)/2) and of the stiffness table sum_q w d_a phi_i d_b phi_j,
    shaped (d^2, nb(nb+1)/2)."""

    def __init__(self, elem, exact_degree):
        rule = quadrature(elem.dim, exact_degree)
        phi = shape_values(elem, rule.points)
        grad = shape_gradients(elem, rule.points)
        i, j = np.triu_indices(phi.shape[1])
        self.points = rule.points
        self.phi = phi
        self.w = rule.weights
        self.wphi = self.w[:, None] * phi
        self.wphiphi = self.wphi[:, i] * phi[:, j]
        self.stiffness = np.einsum(
            "q,qia,qjb->abij", self.w, grad, grad
        )[:, :, i, j].reshape(elem.dim**2, i.size)


def _cell_blocks(n):
    """Slices of at most CELL_BLOCK consecutive cells covering n cells."""
    for start in range(0, n, CELL_BLOCK):
        yield slice(start, min(start + CELL_BLOCK, n))


def _integrate(space, table, values_of, index, size):
    """The quadrature kernel and its scatter in one pass. For each block s
    of cells, values_of(s) * |det J| times table gives one row of element
    entries per cell; np.add.at adds them, in element order, into
    out[index[e]] (out of length size), e the block's element entries,
    numbered cell by cell. np.bincount sums in that same order, so out is
    its sum bit for bit; only out and one block's temporaries are
    allocated."""
    det = space.cell_det()
    out = np.zeros(size)
    width = table.shape[1]
    for s in _cell_blocks(space.mesh.n_cells):
        rows = (values_of(s) * det[s, None]) @ table
        np.add.at(out, index[s.start * width:s.stop * width], rows.ravel())
    return out


def _scatter(space, table, values_of):
    """The matrix of the element rows `_integrate` makes of table and
    values_of, each the upper triangle of a cell's element matrix in
    `np.triu_indices(nb)` order: summed into the pattern's upper slots,
    then gathered into full storage, the interior block."""
    pattern = space.pattern()
    upper = _integrate(space, table, values_of, pattern.slot,
                       pattern.n_upper + 1)
    return pattern.matrix(upper[pattern.mirror])


def assemble_stiffness(space):
    """Stiffness matrix (grad u, grad v): the PDE's diffusion is the
    identity."""
    d = space.dim

    def metric(s):
        # physical gradient is inv @ grad_ref, so the cell metric is
        # inv' inv (the kernel scales it by |det J|), built one symmetric
        # pair of entries at a time
        inv_s = space.geometry(s)[1]
        b = np.empty((len(inv_s), d, d))
        for i in range(d):
            for j in range(i, d):
                m = inv_s[:, 0, i] * inv_s[:, 0, j]
                for k in range(1, d):
                    m += inv_s[:, k, i] * inv_s[:, k, j]
                b[:, i, j] = m
                b[:, j, i] = m
        return b.reshape(len(inv_s), d * d)

    return _scatter(space, space.rule(space.bilinear_degree).stiffness,
                    metric)


def assemble_mass(space):
    tables = space.rule(space.bilinear_degree)
    ones = np.ones(len(tables.w))
    return _scatter(space, tables.wphiphi, lambda s: ones)


def _weighted_mass(space, values_of):
    """Mass matrix weighted by values_of(s), the weight at the weighted
    rule's points of the cells in slice s."""
    return _scatter(space, space.rule(space.weighted_degree).wphiphi,
                    values_of)


def _spatial_values(space, weight):
    """values_of for a spatial function (Expr or callable) at the weighted
    rule's points."""
    mesh = space.mesh
    points = space.rule(space.weighted_degree).points

    def values_of(s):
        # (cells of s, nq, dim)
        pts = points @ np.take(mesh.vertices, mesh.cells[s], axis=0)
        flat = pts.reshape(-1, space.dim)
        if isinstance(weight, expr_mod.Expr):
            vals = expr_mod.evaluate(weight, flat)
        else:
            vals = np.asarray(weight(flat), dtype=float)
        return vals.reshape(pts.shape[:2])

    return values_of


def assemble_weighted_mass(space, weight):
    """Mass matrix weighted by a spatial function (Expr or callable)."""
    return _weighted_mass(space, _spatial_values(space, weight))


def _field_values(space, u, transform):
    """values_of for transform(u(x)), u a FEM field, at the weighted rule's
    points."""
    phi_t = space.rule(space.weighted_degree).phi.T
    return lambda s: transform(u[space.cell_dofs[s]] @ phi_t)


def assemble_field_weighted_mass(space, u, transform):
    """Mass matrix weighted by transform(u(x)) with u a FEM field."""
    return _weighted_mass(space, _field_values(space, u, transform))


def assemble_field_load(space, u, transform):
    """Load vector (transform(u(x)), phi_i), i interior, with u a FEM
    field."""
    return _integrate(space, space.rule(space.weighted_degree).wphi,
                      _field_values(space, u, transform),
                      space.cell_dofs.ravel(), space.n_dofs
                      )[space.interior_dofs]


def _check_nested(coarse, fine):
    if coarse.degree != fine.degree:
        raise UsageError("prolongation requires equal polynomial degrees")
    if fine.mesh.level != coarse.mesh.level + 1 or any(
        nf != 2 * nc
        for nf, nc in zip(fine.mesh.cells_per_axis, coarse.mesh.cells_per_axis)
    ):
        raise UsageError("fine space is not the refinement of the coarse space")


def prolongation_matrix(coarse, fine):
    """Sparse nodal-interpolation operator V_coarse -> V_fine (exact
    embedding), built afresh on each call: gpmg itself reads it only
    through `_interior_prolongation`, which caches the interior block."""
    _check_nested(coarse, fine)
    cid, bary = coarse.mesh.locate(fine.dof_coords)
    phi = shape_values(coarse.elem, bary)
    # row i holds the nonzero basis values of fine dof i's coarse cell
    nonzero = phi != 0.0
    indptr = np.zeros(fine.n_dofs + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(nonzero, axis=1), out=indptr[1:])
    p = sp.csr_matrix(
        (phi[nonzero], coarse.cell_dofs[cid][nonzero], indptr),
        shape=(fine.n_dofs, coarse.n_dofs),
    )
    p.sort_indices()
    return p


def _interior_prolongation(coarse_space, fine_space):
    """The prolongation between the interior dofs, cached on the fine
    space: the P of every field, which is zero on the boundary
    (`newton._prolong_field`), and in float32 of every V-cycle."""
    key = id(coarse_space)
    cache = fine_space._interior_prolongation_from
    if key not in cache:
        p = prolongation_matrix(coarse_space, fine_space)
        cache[key] = p[fine_space.interior_dofs][
            :, coarse_space.interior_dofs].tocsr()
    return cache[key]


def _interior_prolongation32(coarse_space, fine_space):
    """The interior prolongation as float32 data on its index arrays,
    cached beside it, so every V-cycle over the pair (the Riesz one and
    the Newton one) shares one matrix."""
    key = id(coarse_space)
    cache = fine_space._interior_prolongation32_from
    if key not in cache:
        cache[key] = as_float32(_interior_prolongation(coarse_space,
                                                       fine_space))
    return cache[key]


class Operators:
    """One mesh level of a problem: its space, the cached u-independent
    interior operators (`mass`, `linear_part` = stiffness + potential mass,
    `h1` = stiffness + mass), the `shift` s = max(0, -min V) over the
    potential's quadrature values, with which the potential mass plus s
    times the mass is positive semidefinite, and the lazily built H1 Riesz
    solver on `h1`. The methods take fields and return interior entries.
    `coarser` is the next coarser level's Operators, if any
    (`newton.build_contexts` links them); the Riesz solver's V-cycle runs
    over this level and every coarser one."""

    def __init__(self, space, nl, potential=None, coarser=None):
        self.space = space
        self.nl = nl
        self.coarser = coarser
        self._riesz = None
        pattern = space.pattern()
        stiffness = assemble_stiffness(space)
        self.mass = assemble_mass(space)
        self.h1 = pattern.matrix(stiffness.data + self.mass.data)
        self.linear_part = stiffness
        self.shift = 0.0
        if potential is not None:
            values_of = _spatial_values(space, potential)

            def finite_values(s):
                vals = values_of(s)
                if not np.isfinite(vals).all():
                    raise ConfigurationError(
                        "problem.potential evaluates to inf or nan on the "
                        "domain")
                self.shift = max(self.shift, -float(vals.min()))
                return vals

            self.linear_part = pattern.matrix(
                stiffness.data + _weighted_mass(space, finite_values).data)
        # finite coefficients times cell volumes can overflow (x1^2 on
        # problem.box = 1,1e100)
        if not (np.isfinite(self.h1.data).all()
                and np.isfinite(self.linear_part.data).all()):
            raise ConfigurationError(
                "problem.box and problem.potential: the assembled operators "
                "overflow the float range")

    def residual(self, lam, u, mu=None):
        """<F(lam,u), phi_i> for the interior dofs i. mu is M u, if the
        caller has it."""
        ui = u[self.space.interior_dofs]
        mu = self.mass @ ui if mu is None else mu
        r = self.linear_part @ ui - lam * mu
        if self.nl.zeta != 0:
            r += assemble_field_load(
                self.space, u, lambda t: f_eval(self.nl, t**2) * t
            )
        return r

    def with_zeta(self, zeta):
        """This level at coupling zeta: self if zeta is its own, else a
        shallow copy sharing the space, the cached operators and the H1
        Riesz solver (built here, once for all copies)."""
        if zeta == self.nl.zeta:
            return self
        self._riesz_solver()
        other = copy.copy(self)
        other.nl = dataclasses.replace(self.nl, zeta=zeta)
        return other

    def vcycle(self, mat, coarser=None):
        """The V-cycle on this level for mat, Riesz and Newton alike:
        coarser, the next coarser level's, refined with mat, or else the
        one-level hierarchy that factors mat."""
        if coarser is None:
            return VCycleHierarchy(mat)
        return coarser.refined(mat, _interior_prolongation32(
            self.coarser.space, self.space))

    def _riesz_solver(self):
        """CG on `h1`, preconditioned by one V-cycle over
        this level and every coarser one. The V-cycle refines the coarser
        level's own, so the coarsest LU and each level's smoother are set
        up once; without a coarser level it is the exact LU and CG takes
        one iteration."""
        if self._riesz is None:
            coarser = self.coarser and self.coarser._riesz_solver().vcycle
            self._riesz = SpdSolver(self.h1, SolverConfig(rel_tol=RIESZ_TOL),
                                    self.vcycle(self.h1, coarser))
        return self._riesz

    def riesz_norm(self, functional):
        """H1 norm of the Riesz representative of an interior functional f:
        sqrt(f.z) with z = A^-1 f, A = `h1`.

        z is solved by PCG to RIESZ_TOL. The contract: the norm is at most
        1e-8 relative low and 1e-12 relative high. One printed digit of the
        CSV's `resi` is 5e-8 to 5e-7 relative, so the low side stays below
        it. CG from zero with a symmetric preconditioner is a Galerkin
        projection: its iterate z_k has f.z_k = ||z_k||_A^2 and an error
        e_k that is A-orthogonal to z_k, hence f.z_k = f.z - ||e_k||_A^2.
        The norm is low by about half the square of the relative
        energy-norm error ||e_k||_A / ||z||_A, so a loose solve gives a
        tight norm. The V-cycle runs in float32, symmetric only to float32
        rounding, so the norm can also be high by round-off. At 1e-3 (CG
        stops at a relative residual of 1e-4) PCG takes 3-5 iterations on
        linked levels. On every call of the seed-0 runs of
        `p1_2d_mgcg`, `ex2_mixing` and `ex1_newton`, against an LU solve
        with one refinement step, the norm was low by at most 5.0e-9,
        8.2e-10 and 6.3e-10 relative and high by at most 3.3e-14
        (`tools/riesz_accuracy.py` reprints the table)."""
        z = self._riesz_solver().solve(functional)
        return float(np.sqrt(max(dot(z, functional), 0.0)))

    def l2_norm(self, u):
        ui = u[self.space.interior_dofs]
        return float(np.sqrt(max(ui @ (self.mass @ ui), 0.0)))

    def h1_norm(self, u):
        """sqrt(u' (K + M) u)."""
        ui = u[self.space.interior_dofs]
        return float(np.sqrt(max(ui @ (self.h1 @ ui), 0.0)))

    def rayleigh_lambda(self, u):
        """lambda = <F(0,u), u> = a(u,u) + (f(u^2)u, u) for mass-normalized
        u with zero boundary values."""
        return float(u[self.space.interior_dofs] @ self.residual(0.0, u))
