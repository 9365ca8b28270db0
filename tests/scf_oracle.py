"""Test oracle for the discrete nonlinear eigenproblem, independent of the
Newton code that `gpmg.eigsolve.scf_solve` runs.

Damped self-consistent field: freeze f(u^2), take the smallest eigenpair
of the frozen pencil by ARPACK in shift-invert mode, mix it into the
iterate, and halve the mixing weight whenever the H1 update grows.
"""

import numpy as np
import scipy.sparse.linalg as spla

from gpmg.assembly import assemble_field_load, assemble_field_weighted_mass
from gpmg.nonlinearity import f_eval
from gpmg.state import IterateX


def scf_oracle(ops, tol=1e-12, max_iter=2000):
    """Ground state on ops' space: u mass-normalized with positive mean,
    lambda from the Rayleigh identity. Stops when the H1 update is <= tol."""
    space = ops.space
    ix = space.interior_dofs
    a0 = ops.linear_part.tocsc()
    m = ops.mass.tocsc()

    def ground(k, start):
        # a fixed start vector keeps ARPACK, and so the oracle, repeatable
        return spla.eigsh(k, k=1, M=m, sigma=0.0, v0=start)[1][:, 0]

    u = np.zeros(space.n_dofs)
    u[ix] = ground(a0, np.ones(ix.size))
    alpha, prev = 0.5, np.inf
    for _ in range(max_iter):
        w = assemble_field_weighted_mass(space, u,
                                         lambda t: f_eval(ops.nl, t**2))
        v = ground((a0 + w).tocsc(), u[ix])
        v *= np.sign(v @ (m @ u[ix]))
        new = np.zeros(space.n_dofs)
        new[ix] = (1.0 - alpha) * u[ix] + alpha * v
        new /= ops.l2_norm(new)
        diff = ops.h1_norm(new - u)
        if diff > prev:
            alpha = max(alpha * 0.5, 0.02)
        prev = diff
        u = new
        if diff <= tol:
            break
    else:
        raise AssertionError(f"SCF oracle: H1 update {diff:.2e} > {tol:.0e}")
    if u[ix] @ assemble_field_load(space, u, np.ones_like) < 0:  # int u
        u = -u
    return IterateX(lam=ops.rayleigh_lambda(u), u=u)
