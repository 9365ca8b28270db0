"""Coarse-space nonlinear eigenvalue solve: damped SCF around a linear
generalized eigensolver.

The nonlinear coefficient f(u^2) is frozen, the resulting symmetric pencil
is solved for its smallest eigenpair, and the new eigenvector is mixed into
the iterate with a fixed damping factor. Only the coarsest space is meant
to be solved this way; a dof cap enforces that intent.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse.linalg as spla

from .assembly import assemble_field_weighted_mass
from .errors import (
    ConfigurationError,
    NonConvergenceError,
    ResourceLimitError,
    SolverError,
)
from .nonlinearity import f_eval
from .state import IterateX

__all__ = ["ScfConfig", "smallest_eigpair", "scf_solve"]

DENSE_EIG_LIMIT = 2000
# shift-and-invert iteration above DENSE_EIG_LIMIT: residual tolerance
# relative to ||x|| and the iteration cap
EIG_TOL = 1e-10
EIG_MAX_ITER = 500


@dataclass
class ScfConfig:
    tol: float = 1e-10
    max_outer: int = 500
    alpha: float = 0.5
    inner: str = "auto"  # auto | inverse_iteration | dense_fallback
    dof_cap: int = 50_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigurationError("scf tol must be positive")
        if self.max_outer < 1:
            raise ConfigurationError("scf max_outer must be at least 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError("scf damping alpha must be in (0, 1]")
        if self.inner not in ("auto", "inverse_iteration", "dense_fallback"):
            raise ConfigurationError(f"unknown inner eigensolver {self.inner!r}")


def smallest_eigpair(kfull, m, cfg=None):
    """Smallest eigenpair of K v = mu M v, v normalized to v'Mv = 1.

    Dense solve below a size threshold; otherwise shift-and-invert power
    iteration with occasional Rayleigh-quotient shift updates.
    """
    cfg = cfg or ScfConfig()
    n = kfull.shape[0]
    use_dense = cfg.inner == "dense_fallback" or (
        cfg.inner == "auto" and n <= DENSE_EIG_LIMIT
    )
    if use_dense:
        w, v = dla.eigh(
            np.asarray(kfull.todense()),
            np.asarray(m.todense()),
            subset_by_index=[0, 0],
        )
        return float(w[0]), v[:, 0]

    kc = kfull.tocsc()
    mc = m.tocsr()
    lu = spla.splu(kc)
    sigma = 0.0
    x = np.ones(n)
    x /= np.sqrt(x @ (mc @ x))
    for it in range(EIG_MAX_ITER):
        y = lu.solve(mc @ x)
        y /= np.sqrt(max(y @ (mc @ y), 1e-300))
        if y @ (mc @ x) < 0:
            y = -y
        x = y
        rho = float(x @ (kfull @ x))  # x is M-normalized
        res = float(np.linalg.norm(kfull @ x - rho * (mc @ x)))
        if res <= EIG_TOL * float(np.linalg.norm(x)):
            return rho, x
        # Rayleigh shift update: refactor once the fixed shift stalls.
        if it > 0 and it % 20 == 0:
            sigma = rho * (1.0 - 1e-3)
            lu = spla.splu((kc - sigma * m.tocsc()).tocsc())
    raise SolverError(
        f"eigensolver did not reach {EIG_TOL:.1e} in {EIG_MAX_ITER} "
        f"iterations (last residual {res:.3e})",
        achieved=res,
    )


def scf_solve(ops, cfg=None):
    """Damped SCF for the discrete nonlinear eigenvalue problem on ops' space.

    Returns an IterateX with ||u||_0 = 1 and lambda from the Rayleigh
    identity lambda = a(u,u) + (f(u^2)u, u). The iterate's u has
    nonnegative mean (ground-state sign convention).
    """
    cfg = cfg or ScfConfig()
    space, nl = ops.space, ops.nl
    if space.n_dofs > cfg.dof_cap:
        raise ResourceLimitError(
            f"scf_solve on {space.n_dofs} dofs exceeds the coarse-space cap "
            f"{cfg.dof_cap}"
        )
    ix = space.interior_dofs
    a0 = ops.linear_part[ix][:, ix].tocsr()
    m_int = ops.mass[ix][:, ix].tocsr()

    def expand(v_int):
        full = np.zeros(space.n_dofs)
        full[ix] = v_int
        return full

    # Initial iterate: ground state of the linear part (f frozen at zero).
    lam, u_int = smallest_eigpair(a0, m_int, cfg)
    u_full = expand(u_int)
    iterations = 0
    if nl.zeta != 0:
        alpha = cfg.alpha
        prev_diff = None
        for outer in range(1, cfg.max_outer + 1):
            mw = assemble_field_weighted_mass(
                space, u_full, lambda t: f_eval(nl, t**2)
            )
            pencil = a0 + mw[ix][:, ix].tocsr()
            lam, v_int = smallest_eigpair(pencil, m_int, cfg)
            if v_int @ (m_int @ u_int) < 0:
                v_int = -v_int
            new_int = (1.0 - alpha) * u_int + alpha * v_int
            new_int /= np.sqrt(new_int @ (m_int @ new_int))
            diff = ops.h1_norm(expand(new_int - u_int))
            # strong nonlinearities make the fixed-point map oscillate;
            # back off the damping whenever the update grows
            if prev_diff is not None and diff > prev_diff:
                alpha = max(alpha * 0.5, 0.02)
            prev_diff = diff
            u_int = new_int
            u_full = expand(u_int)
            iterations = outer
            if diff <= cfg.tol:
                break
        else:
            raise NonConvergenceError(
                f"SCF did not converge in {cfg.max_outer} iterations "
                f"(last H1 update {diff:.3e}); try a smaller damping alpha"
            )
    if np.sum(ops.mass @ u_full) < 0:
        u_full = -u_full
    lam = ops.rayleigh_lambda(u_full)
    it = IterateX(lam=lam, u=u_full)
    it.scf_iterations = iterations
    return it
