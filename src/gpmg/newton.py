"""Product-space Newton step, multigrid drivers, and the mixing scheme.

One Newton step linearizes the constrained eigenproblem around (lam0, u0)
and solves the bordered system

    K u1 - lam1 M u0 = 2 (f'(u0^2) u0^3, phi) - lam0 M u0
    -(u0, u1)        = -1/2 - (u0, u0)/2

with K = stiffness + potential mass + M_{f(u0^2)} + 2 M_{f'(u0^2) u0^2}
- lam0 M on interior dofs. The multigrid drivers solve the coarsest space
nonlinearly once and take one (possibly damped) Newton step per level.
"""

import time

import numpy as np

from .assembly import (
    FemSpace,
    Operators,
    assemble_field_load,
    assemble_field_weighted_mass,
    prolongation_matrix,
)
from .eigsolve import scf_solve
from .errors import DivergenceError, StagnationError, UsageError
from .linsolve import BorderedSystem, SolverConfig, VCycleHierarchy, solve_bordered
from .nonlinearity import f_eval, fprime_eval
from .state import IterateX, TraceRow

__all__ = [
    "MixingParams",
    "build_contexts",
    "assemble_newton_system",
    "newton_step",
    "newton_fixed_space",
    "resi",
    "mixing_iteration",
    "multigrid_newton",
    "multigrid_mixing",
]

# A Newton step that inflates resi beyond this factor (above a noise
# floor) aborts the plain-Newton driver in favor of the mixing scheme.
RESI_GROWTH_FACTOR = 1.25
RESI_FLOOR = 1e-10


class MixingParams:
    def __init__(self, theta_init=1.0, theta_min=2.0**-20):
        if not 0.0 < theta_init <= 1.0:
            raise UsageError("theta_init must be in (0, 1]")
        if not 0.0 < theta_min <= theta_init:
            raise UsageError("theta_min must be in (0, theta_init]")
        self.theta_init = theta_init
        self.theta_min = theta_min


# Kept only because perfbench/tracer.py hooks
# `newton.LevelContext.riesz_norm`, and perfbench's smoke test needs that
# metric; delete it once the hook names `assembly.Operators.riesz_norm`.
LevelContext = Operators


def build_contexts(hierarchy, degree, nl, potential=None):
    """One `Operators` per mesh level, coarsest first."""
    return [
        Operators(FemSpace(mesh, degree), nl, potential)
        for mesh in hierarchy.levels
    ]


def resi(ctx, x):
    """Computable residual: H1 Riesz norm of the eigen-residual functional
    plus half the normalization defect."""
    r = ctx.residual(x.lam, x.u)
    defect = abs(1.0 - float(x.u @ (ctx.mass @ x.u)))
    return ctx.riesz_norm(r) + 0.5 * defect


def _newton_matrix(ctx, lam0, u0_full):
    k = ctx.linear_part - lam0 * ctx.mass
    if ctx.nl.zeta != 0:
        def weight(t):
            t2 = t**2
            return f_eval(ctx.nl, t2) + 2.0 * fprime_eval(ctx.nl, t2) * t2

        k = k + assemble_field_weighted_mass(ctx.space, u0_full, weight)
    return k.tocsr()


def assemble_newton_system(ctx, x0):
    """Bordered system of the Newton step at x0 (already on ctx's space)."""
    space = ctx.space
    u0 = x0.u
    if u0.shape != (space.n_dofs,):
        raise UsageError("x0 must live on the target space; prolongate first")
    ix = space.interior_dofs
    k = _newton_matrix(ctx, x0.lam, u0)[ix][:, ix].tocsr()
    mu0 = ctx.mass @ u0
    m = mu0[ix].copy()
    r = -x0.lam * mu0[ix]
    if ctx.nl.zeta != 0:
        load = assemble_field_load(
            space, u0, lambda t: fprime_eval(ctx.nl, t**2) * t**3
        )
        r = r + load[ix] * 2.0
    c = -0.5 - 0.5 * float(u0 @ mu0)
    return BorderedSystem(k=k, m=m, r=r, c=c)


def _interior_prolongation(coarse_space, fine_space):
    p = prolongation_matrix(coarse_space, fine_space)
    return p[fine_space.interior_dofs][:, coarse_space.interior_dofs].tocsr()


def _nested_dofs(coarse_space, fine_space):
    """The fine dof at each coarse dof's node: the row of the 1 in that
    column of the prolongation (every other entry of the column is < 1)."""
    p = prolongation_matrix(coarse_space, fine_space).tocoo()
    first = np.lexsort((-p.data, p.col))
    starts = np.searchsorted(p.col[first], np.arange(coarse_space.n_dofs))
    return p.row[first[starts]]


def _build_vcycle(levels, lam0, u0, cfg):
    """Per-level Newton matrices for mg_cg, re-assembled (not Galerkin) at
    the linearization point u0 on levels[-1], injected down the hierarchy."""
    mats = []
    prolongs = []
    points = [u0]
    for idx in range(len(levels) - 2, -1, -1):
        points.insert(0, points[0][
            _nested_dofs(levels[idx].space, levels[idx + 1].space)
        ])
    for idx, (ctx, u) in enumerate(zip(levels, points)):
        ix = ctx.space.interior_dofs
        mats.append(_newton_matrix(ctx, lam0, u)[ix][:, ix].tocsr())
        if idx > 0:
            prolongs.append(
                _interior_prolongation(levels[idx - 1].space, ctx.space)
            )
    return VCycleHierarchy(
        mats, prolongs, pre_smooth=cfg.pre_smooth, post_smooth=cfg.post_smooth
    )


def _prolong_iterate(x0, coarse_space, fine_space):
    p = prolongation_matrix(coarse_space, fine_space)
    return IterateX(lam=x0.lam, u=p @ x0.u)


def newton_step(levels, x0, cfg=None):
    """One Newton step on levels[-1] from x0, an iterate already on its
    space. levels runs coarsest first; mg_cg needs more than one."""
    cfg = cfg or SolverConfig()
    ctx = levels[-1]
    system = assemble_newton_system(ctx, x0)
    vcycle = None
    n = system.k.shape[0]
    hierarchy = len(levels) > 1
    if hierarchy and cfg.resolved_method(n, hierarchy) == "mg_cg":
        vcycle = _build_vcycle(levels, x0.lam, x0.u, cfg)
    sol = solve_bordered(system, cfg, vcycle=vcycle)
    u1 = np.zeros(ctx.space.n_dofs)
    u1[ctx.space.interior_dofs] = sol.u
    return IterateX(lam=sol.lam, u=u1)


def newton_fixed_space(x0, ctx, tol=1e-10, max_steps=12, cfg=None):
    """Repeat the Newton step within one space until resi <= tol.

    Returns the final iterate and the resi history (including the start),
    for empirical quadratic-convergence analysis.
    """
    cfg = cfg or SolverConfig()
    x = x0
    history = [resi(ctx, x)]
    growths = 0
    for _ in range(max_steps):
        if history[-1] <= tol:
            break
        x_new = newton_step([ctx], x, cfg)
        history.append(resi(ctx, x_new))
        if history[-1] > history[-2]:
            growths += 1
            if growths >= 2:
                raise DivergenceError(
                    "Newton residual grew on two consecutive steps "
                    f"(history {['%.3e' % h for h in history]})"
                )
        else:
            growths = 0
        x = x_new
    return x, history


def mixing_iteration(levels, x0, params=None, cfg=None):
    """Damped Newton step on levels[-1] from x0, an iterate already on its
    space: solve once, then halve theta until the residual decreases.
    Never re-solves during the line search."""
    params = params or MixingParams()
    ctx = levels[-1]
    resi_old = resi(ctx, x0)
    xhat = newton_step(levels, x0, cfg)
    theta = params.theta_init
    while theta >= params.theta_min:
        lam = (1.0 - theta) * x0.lam + theta * xhat.lam
        u = (1.0 - theta) * x0.u + theta * xhat.u
        x_new = IterateX(lam=lam, u=u)
        resi_new = resi(ctx, x_new)
        if resi_new <= resi_old:
            return x_new, theta
        theta *= 0.5
    raise StagnationError(
        f"mixing stagnated: resi would rise from {resi_old:.6e} to "
        f"{resi_new:.6e} even at theta < {params.theta_min:.2e}",
        resi_old=resi_old,
        resi_new=resi_new,
    )


def _finalize(ops, x):
    """x L2-normalized on ops' space, lambda from the Rayleigh identity."""
    v = x.u / ops.l2_norm(x.u)
    return IterateX(lam=ops.rayleigh_lambda(v), u=v)


def _prolong_to_finest(contexts, v, level_idx):
    """Coefficients v on contexts[level_idx] carried up to contexts[-1]."""
    for idx in range(level_idx, len(contexts) - 1):
        v = prolongation_matrix(
            contexts[idx].space, contexts[idx + 1].space
        ) @ v
    return v


def _traced_resi(contexts, x, level_idx):
    """Trace currency: resi of the iterate measured on the finest space of
    the run, so rows of one trace are compared in the same discrete norm.
    (The mixing acceptance test still compares on the step's own space.)"""
    v = _prolong_to_finest(contexts, x.u, level_idx)
    return resi(contexts[-1], IterateX(lam=x.lam, u=v))


def multigrid_newton(contexts, scf_cfg=None, solver_cfg=None, renormalize=False,
                     reference_lambda=None):
    """Coarse nonlinear solve, then one Newton step per level."""
    return _run_driver(contexts, mixing=False, scf_cfg=scf_cfg,
                       solver_cfg=solver_cfg, params=None,
                       renormalize=renormalize,
                       reference_lambda=reference_lambda)


def multigrid_mixing(contexts, params=None, scf_cfg=None, solver_cfg=None,
                     renormalize=False, reference_lambda=None):
    """Coarse nonlinear solve, then one adaptively damped step per level."""
    return _run_driver(contexts, mixing=True, scf_cfg=scf_cfg,
                       solver_cfg=solver_cfg, params=params or MixingParams(),
                       renormalize=renormalize,
                       reference_lambda=reference_lambda)


def _run_driver(contexts, mixing, scf_cfg, solver_cfg, params, renormalize,
                reference_lambda):
    """The final iterate (renormalized on request) and one TraceRow per
    level, each holding that level's raw iterate."""
    solver_cfg = solver_cfg or SolverConfig()
    rows = []
    for idx, ctx in enumerate(contexts):
        t0 = time.perf_counter()
        theta = None
        if idx == 0:
            x = scf_solve(ctx, scf_cfg)
        else:
            levels = contexts[:idx + 1]
            x0p = _prolong_iterate(x, contexts[idx - 1].space, ctx.space)
            if mixing:
                try:
                    x, theta = mixing_iteration(levels, x0p, params,
                                                solver_cfg)
                except StagnationError as err:
                    raise StagnationError(
                        f"level {idx + 1}: {err}", err.resi_old, err.resi_new
                    ) from err
            else:
                resi_old = resi(ctx, x0p)
                x = newton_step(levels, x0p, solver_cfg)
                resi_new = resi(ctx, x)
                if resi_new > max(RESI_GROWTH_FACTOR * resi_old, RESI_FLOOR):
                    raise DivergenceError(
                        f"level {idx + 1}: Newton step grew the residual "
                        f"({resi_old:.6e} -> {resi_new:.6e}); rerun with the "
                        "mixing driver (--mixing)"
                    )
        step_ms = (time.perf_counter() - t0) * 1e3
        rows.append(TraceRow(
            level=idx + 1,
            n_dofs=ctx.space.n_dofs,
            lam=x.lam,
            resi=_traced_resi(contexts, x, idx),
            theta=theta,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            err_lambda=(abs(x.lam - reference_lambda)
                        if reference_lambda is not None else None),
            scf_iterations=getattr(x, "scf_iterations", None),
            step_ms=step_ms,
            x=x,
        ))
    if renormalize:
        x = _finalize(contexts[-1], x)
    return x, rows
