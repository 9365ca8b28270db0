"""Coarse-space nonlinear eigenvalue solve: newton.damped_newton, the
finer levels' damped Newton step repeated on the coarsest space.

The solve starts at the ground state of the linear part (f frozen at
zero) and reaches the coupling zeta through the fixed ladder zeta/10^k,
..., zeta/10, zeta, whose lowest rung is the first one <= 1; each rung
starts from the previous rung's solution. Started far from it, Newton at
a strong coupling stagnates or converges to an excited state. Since
zeta >= 0, the ground state has one sign, and a sign-changing result is
an error. A dof cap keeps the solve on coarse spaces.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse.linalg as spla

from .assembly import assemble_field_load
from .errors import (
    ConfigurationError,
    NonConvergenceError,
    ResourceLimitError,
    SolverError,
    StagnationError,
)
from .newton import MixingParams, _finalize, _stop_at, damped_newton, resi
from .state import IterateX

__all__ = ["ScfConfig", "smallest_eigpair", "scf_solve"]

DENSE_EIG_LIMIT = 2000


@dataclass
class ScfConfig:
    tol: float = 1e-10  # on resi
    max_outer: int = 500  # Newton steps, over all rungs of the ladder
    dof_cap: int = 50_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigurationError("coarse.tol must be positive")
        if self.max_outer < 1:
            raise ConfigurationError("coarse.max_outer must be at least 1")
        if self.dof_cap < 1:
            raise ConfigurationError("coarse.dof_cap must be at least 1")


def smallest_eigpair(kfull, m):
    """Smallest eigenpair of K v = mu M v, v normalized to v'Mv = 1.

    Dense solve up to DENSE_EIG_LIMIT dofs; above it one ARPACK call in
    shift-and-invert mode about 0 (Lanczos on K^-1 M), started from the
    vector of ones so that repeated calls agree bit for bit.
    """
    n = kfull.shape[0]
    if n <= DENSE_EIG_LIMIT:
        w, v = dla.eigh(
            np.asarray(kfull.todense()),
            np.asarray(m.todense()),
            subset_by_index=[0, 0],
        )
        return float(w[0]), v[:, 0]
    try:
        w, v = spla.eigsh(kfull, 1, M=m, sigma=0.0, v0=np.ones(n))
    except spla.ArpackError as err:
        raise SolverError(f"eigensolver (ARPACK) failed: {err}") from err
    v = v[:, 0]
    return float(w[0]), v / np.sqrt(v @ (m @ v))


def _zeta_ladder(zeta):
    """zeta/10^k, ..., zeta/10, zeta, with k the least such that
    zeta/10^k <= 1."""
    rungs = [zeta]
    while rungs[0] > 1.0:
        rungs.insert(0, rungs[0] / 10.0)
    return rungs


def scf_solve(ops, cfg=None):
    """Ground state of the discrete nonlinear eigenvalue problem on ops'
    space, by damped Newton steps up the zeta ladder, each rung until
    resi <= max(cfg.tol, newton.RESI_ROUNDOFF * |lambda|).

    Returns an IterateX with ||u||_0 = 1, lambda from the Rayleigh
    identity lambda = a(u,u) + (f(u^2)u, u), and u of positive mean; its
    `scf_iterations` counts the Newton steps.
    """
    cfg = cfg or ScfConfig()
    space = ops.space
    if space.n_dofs > cfg.dof_cap:
        raise ResourceLimitError(
            f"the coarse space's {space.n_dofs} dofs exceed coarse.dof_cap = "
            f"{cfg.dof_cap}"
        )
    ix = space.interior_dofs
    # the integrals of the interior basis functions: w @ u[ix] is the
    # integral of a field u, and the ground state's is positive
    w = assemble_field_load(space, np.zeros(space.n_dofs), np.ones_like)
    lam, u_int = smallest_eigpair(ops.linear_part, ops.mass)
    u = np.zeros(space.n_dofs)
    u[ix] = u_int if w @ u_int >= 0 else -u_int
    x = IterateX(lam=lam, u=u)
    steps = 0
    rungs = _zeta_ladder(ops.nl.zeta)
    for k, zeta in enumerate(rungs, start=1):
        rung = ops.with_zeta(zeta)
        where = f"rung {k} of {len(rungs)} (zeta = {zeta:.6g})"
        try:
            # past zeta ~ 1e150 the squares in resi overflow
            with np.errstate(over="raise"):
                x, history, thetas = damped_newton(
                    rung, x, resi(rung, x), cfg.tol, cfg.max_outer - steps,
                    MixingParams()
                )
        except FloatingPointError as err:
            raise NonConvergenceError(
                f"coarse Newton solve overflowed at {where}: {err}"
            ) from err
        except StagnationError as err:
            raise NonConvergenceError(
                f"coarse Newton solve stagnated at {where}: {err}"
            ) from err
        steps += len(thetas)
        if history[-1] > _stop_at(cfg.tol, x):
            raise NonConvergenceError(
                f"coarse Newton solve spent its {cfg.max_outer} steps "
                f"and stopped at {where} with resi {history[-1]:.3e} > "
                f"{cfg.tol:.1e}"
            )
    if x.u[ix].min() < 0.0 < x.u[ix].max():
        raise NonConvergenceError(
            "coarse Newton solve converged to a sign-changing state, not "
            "the ground state"
        )
    if w @ x.u[ix] < 0:
        x.u = -x.u
    x = _finalize(ops, x)
    x.scf_iterations = steps
    return x
