"""Test oracle for FEM fields, independent of the assembly code: point
evaluation through the mesh's point location and the element's shape
functions."""

import numpy as np

from gpmg.elements import shape_values


def evaluate_field(space, u, points):
    """Point evaluation of a FEM field at arbitrary points in the box."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cid, bary = space.mesh.locate(pts)
    phi = shape_values(space.elem, bary)  # (npts, nb)
    dofs = space.cell_dofs[cid]  # (npts, nb)
    vals = np.sum(phi * u[dofs], axis=1)
    return vals if np.asarray(points).ndim > 1 else float(vals[0])
