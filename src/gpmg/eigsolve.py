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

from .errors import (
    ConfigurationError,
    NonConvergenceError,
    ResourceLimitError,
    SolverError,
    StagnationError,
)
from .linsolve import factor_symmetric
from .newton import MixingParams, _finalize, _stop_at, damped_newton, resi
from .state import IterateX

__all__ = ["ScfConfig", "smallest_eigpair", "scf_solve"]

DENSE_EIG_LIMIT = 2000
# shift-and-invert iteration above DENSE_EIG_LIMIT: residual tolerance
# relative to ||x|| and the iteration cap
EIG_TOL = 1e-10
EIG_MAX_ITER = 500


@dataclass
class ScfConfig:
    tol: float = 1e-10  # on resi
    max_outer: int = 500  # Newton steps, over all rungs of the ladder
    dof_cap: int = 50_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ConfigurationError("scf tol must be positive")
        if self.max_outer < 1:
            raise ConfigurationError("scf max_outer must be at least 1")


def smallest_eigpair(kfull, m):
    """Smallest eigenpair of K v = mu M v, v normalized to v'Mv = 1.

    Dense solve below a size threshold; otherwise shift-and-invert power
    iteration with occasional Rayleigh-quotient shift updates.
    """
    n = kfull.shape[0]
    if n <= DENSE_EIG_LIMIT:
        w, v = dla.eigh(
            np.asarray(kfull.todense()),
            np.asarray(m.todense()),
            subset_by_index=[0, 0],
        )
        return float(w[0]), v[:, 0]

    kc = kfull.tocsc()
    mc = m.tocsr()
    lu = factor_symmetric(kc)
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
            lu = factor_symmetric(kc - sigma * m.tocsc())
    raise SolverError(
        f"eigensolver did not reach {EIG_TOL:.1e} in {EIG_MAX_ITER} "
        f"iterations (last residual {res:.3e})",
        achieved=res,
    )


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
            f"scf_solve on {space.n_dofs} dofs exceeds the coarse-space cap "
            f"{cfg.dof_cap}"
        )
    ix = space.interior_dofs
    pattern = space.pattern()
    lam, u_int = smallest_eigpair(pattern.interior(ops.linear_part),
                                  pattern.interior(ops.mass))
    u = np.zeros(space.n_dofs)
    u[ix] = u_int
    if np.sum(ops.mass @ u) < 0:
        u = -u
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
                    [rung], x, resi(rung, x), cfg.tol, cfg.max_outer - steps,
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
    if np.sum(ops.mass @ x.u) < 0:
        x.u = -x.u
    x = _finalize(ops, x)
    x.scf_iterations = steps
    return x
