"""Test oracles for FEM fields: point evaluation through the mesh's point
location and the element's shape functions, independent of the assembly
code; and the energy of a field, on the assembly's quadrature rule and
field values, with its density F."""

import numpy as np

from gpmg.assembly import _field_values
from gpmg.elements import shape_values


def F_eval(nl, t):
    """The energy density F(t) = zeta t^(sigma+1) / (sigma+1), the
    antiderivative of f with F(0) = 0."""
    t = np.asarray(t, dtype=float)
    return nl.zeta * t ** (nl.sigma + 1) / (nl.sigma + 1)


def evaluate_field(space, u, points):
    """Point evaluation of a FEM field at arbitrary points in the box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cid, bary = space.mesh.locate(pts)
    phi = shape_values(space.elem, bary)  # (npts, nb)
    dofs = space.cell_dofs[cid]  # (npts, nb)
    vals = np.sum(phi * u[dofs], axis=1)
    return vals if np.asarray(points).ndim > 1 else float(vals[0])


def energy(ops, u):
    """E(u) = 1/2 a(u, u) + 1/2 int F(u^2) on ops' level, a the linear
    part (stiffness plus potential mass) and F the nonlinearity's energy
    density. u is a field, zero on the boundary, where a(u, u) does not
    look."""
    space = ops.space
    ui = u[space.interior_dofs]
    quad = 0.5 * (ui @ (ops.linear_part @ ui))
    w = space.rule(space.weighted_degree).w
    values = _field_values(space, u, lambda t: F_eval(ops.nl, t**2))
    # one row per cell: its quadrature sum
    per_cell = (values(slice(None)) * space.cell_det()[:, None]) @ w
    return quad + 0.5 * float(np.sum(per_cell))
