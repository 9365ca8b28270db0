"""Product-space Newton step, multigrid drivers, and the mixing scheme.

One Newton step linearizes the constrained eigenproblem around (lam0, u0)
and solves the bordered system

    K u1 - lam1 M u0 = 2 (f'(u0^2) u0^3, phi) - lam0 M u0
    -(u0, u1)        = -1/2 - (u0, u0)/2

with K = stiffness + potential mass + M_{f(u0^2)} + 2 M_{f'(u0^2) u0^2}
- lam0 M on interior dofs. Every step is accepted by one rule, the mixing
step's resi_new <= resi_old; plain Newton is the mixing step at theta = 1.
The multigrid drivers solve the coarsest space nonlinearly once and take
one (possibly damped) Newton step per level. A step solved by mg_cg is
inexact: its linear tolerance follows the step's own resi.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    FemSpace,
    Operators,
    _interior_prolongation,
    _interior_prolongation32,
    assemble_field_load,
    assemble_field_weighted_mass,
)
from .errors import (
    CoercivityError,
    ConfigurationError,
    NonConvergenceError,
    SolverError,
    StagnationError,
    UsageError,
)
from .linsolve import BorderedSystem, SolverConfig, VCycleHierarchy, solve_bordered
from .nonlinearity import f_eval, fprime_eval
from .state import IterateX, TraceRow

__all__ = [
    "MixingParams",
    "build_contexts",
    "assemble_newton_system",
    "newton_step",
    "damped_newton",
    "newton_fixed_space",
    "resi",
    "mixing_iteration",
    "multigrid_newton",
    "multigrid_mixing",
]

# resi of a converged iterate is round-off of order eps * |lambda|
# (example 2's coarse mesh at zeta = 1e6 stalls at 0.25 eps |lambda|);
# damped_newton stops at this multiple of |lambda| whatever its tol
RESI_ROUNDOFF = 10.0 * np.finfo(float).eps


@dataclass(frozen=True)
class MixingParams:
    """The theta search of a damped Newton step (config keys mixing.*):
    the first theta tried, and the least before the step stagnates."""

    theta_init: float = 1.0
    theta_min: float = 2.0**-20

    def __post_init__(self):
        if not 0.0 < self.theta_init <= 1.0:
            raise ConfigurationError("mixing.theta_init must be in (0, 1]")
        if not 0.0 < self.theta_min <= self.theta_init:
            raise ConfigurationError(
                "mixing.theta_min must be in (0, mixing.theta_init]"
            )


# plain Newton: the mixing step that tries theta = 1 only
FULL_STEP = MixingParams(1.0, 1.0)


# Kept only because perfbench/tracer.py hooks
# `newton.LevelContext.riesz_norm`, and perfbench's smoke test needs that
# metric; delete it once the hook names `assembly.Operators.riesz_norm`.
LevelContext = Operators


def build_contexts(hierarchy, degree, nl, potential=None):
    """One `Operators` per mesh level, coarsest first, each linked to the
    one before it."""
    contexts = []
    for mesh in hierarchy.levels:
        contexts.append(Operators(FemSpace(mesh, degree), nl, potential,
                                  coarser=contexts[-1] if contexts else None))
    return contexts


def resi(ctx, x):
    """Computable residual: H1 Riesz norm of the eigen-residual functional
    plus half the normalization defect. Both read one product M u."""
    u = x.u[ctx.space.interior_dofs]
    mu = ctx.mass @ u
    defect = abs(1.0 - float(u @ mu))
    return ctx.riesz_norm(ctx.residual(x.lam, x.u, mu)) + 0.5 * defect


def _spd_matrix(ctx, u0_full):
    """G = K + (lam0 + s) mass, s = `ctx.shift`: the stiffness, the
    potential mass, s times the mass and the field masses M_{f(u0^2)} + 2
    M_{f'(u0^2) u0^2}, SPD for zeta >= 0. At most one data-sized temporary
    (s times the mass) is alive beside the result."""
    if ctx.nl.zeta != 0:
        def weight(t):
            t2 = t**2
            return f_eval(ctx.nl, t2) + 2.0 * fprime_eval(ctx.nl, t2) * t2

        data = assemble_field_weighted_mass(ctx.space, u0_full, weight).data
        data += ctx.linear_part.data
    else:
        data = ctx.linear_part.data.copy()
    if ctx.shift > 0.0:
        data += ctx.shift * ctx.mass.data
    return ctx.space.pattern().matrix(data)


def assemble_newton_system(ctx, x0):
    """Bordered system of the Newton step at x0 (already on ctx's space):
    K = G - (lam0 + s) mass, kept as G (`_spd_matrix`) and the shift."""
    space = ctx.space
    u0 = x0.u
    if u0.shape != (space.n_dofs,):
        raise UsageError("x0 must live on the target space; prolongate first")
    g = _spd_matrix(ctx, u0)
    u0i = u0[space.interior_dofs]
    m = ctx.mass @ u0i
    r = -x0.lam * m
    if ctx.nl.zeta != 0:
        r += 2.0 * assemble_field_load(
            space, u0, lambda t: fprime_eval(ctx.nl, t**2) * t**3
        )
    c = -0.5 - 0.5 * float(u0i @ m)
    return BorderedSystem(g=g, m=m, r=r, c=c, mass=ctx.mass,
                          shift=x0.lam + ctx.shift, start=u0i)


def _build_vcycle(levels, g):
    """V-cycle for g, the step's SPD matrix G on levels[-1]. Each
    coarser level's matrix is the Galerkin product P' G P of the next finer
    one, formed in float64 as (P' G) P from the cached interior
    prolongation P between the two, P' made CSR (on the finest 2D P1 pair
    of `p1_2d_mgcg`, 21 MB above its start and 37 ms, where P' (G P) with
    P' left CSC took 37 MB and 48 ms). The hierarchy runs on that P's
    cached float32 copy."""
    pairs = list(zip(levels, levels[1:]))
    mats = [g]
    for coarse, fine in reversed(pairs):
        p = _interior_prolongation(coarse.space, fine.space)
        mats.insert(0, (p.T.tocsr() @ mats[0]) @ p)
        mats[0].sort_indices()
    return VCycleHierarchy(
        mats, [_interior_prolongation32(c.space, f.space) for c, f in pairs])


def _prolong_field(u, coarse_space, fine_space):
    """The field u on coarse_space as a field on fine_space, through the
    cached interior prolongation: exact, since u and its prolongation are
    zero on the boundary."""
    v = np.zeros(fine_space.n_dofs)
    v[fine_space.interior_dofs] = _interior_prolongation(
        coarse_space, fine_space) @ u[coarse_space.interior_dofs]
    return v


def _prolong_iterate(x0, coarse_space, fine_space):
    return IterateX(lam=x0.lam, u=_prolong_field(x0.u, coarse_space,
                                                 fine_space))


def _runs_mg_cg(levels, cfg):
    """Whether a Newton step on levels[-1] solves by projected mg_cg: there
    is a coarser level for the V-cycle, and cfg says mg_cg, or `auto` in
    2D or 3D. `auto` solves 1D directly: a 1D LU is a band solve, linear in
    the dofs, and as G's condition number grows as h^-2 a 1D P2 hierarchy
    meets PCG's round-off floor at a few thousand dofs (at 16,383, 13
    levels from n0 = 4, it stalls at a relative residual of 8.8e-10), where
    2D would need ~10^9."""
    if len(levels) == 1 and cfg.method == "mg_cg":
        raise ConfigurationError("mg_cg requires a V-cycle hierarchy")
    if len(levels) == 1 or cfg.method == "direct":
        return False
    return cfg.method == "mg_cg" or levels[-1].space.mesh.dim > 1


def _step_config(levels, cfg, resi_old, lam0):
    """cfg for a Newton step from an iterate with resi resi_old and
    eigenvalue lam0. An mg_cg step solves to max(cfg.rel_tol,
    (resi_old/|lam0|)^2): an inexact Newton step keeps the quadratic rate
    when its linear residual is O(||F||) relative to ||F|| (Dembo,
    Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982), and the step
    solves the full-form system for u1, whose right side is O(1), so that
    forcing term is a relative tolerance quadratic in resi. A direct step,
    whose cost does not depend on the tolerance, keeps cfg.rel_tol, and so
    does a step whose quadratic term is not below 1 (lam0 = 0 included)."""
    ratio = resi_old / abs(lam0) if lam0 != 0.0 else np.inf
    if ratio < 1.0 and ratio**2 > cfg.rel_tol and _runs_mg_cg(levels, cfg):
        return replace(cfg, rel_tol=ratio**2)
    return cfg


def newton_step(levels, x0, cfg=None):
    """One Newton step on levels[-1] from x0, an iterate already on its
    space. levels runs coarsest first; mg_cg needs more than one."""
    cfg = cfg or SolverConfig()
    ctx = levels[-1]
    system = assemble_newton_system(ctx, x0)
    try:
        vcycle = (_build_vcycle(levels, system.g)
                  if _runs_mg_cg(levels, cfg) else None)
        sol = solve_bordered(system, cfg, vcycle=vcycle)
    except CoercivityError as err:
        raise CoercivityError(
            f"{err}; Newton matrix at lambda0 = {x0.lam:.6e}, "
            f"zeta = {ctx.nl.zeta:g}") from err
    u1 = np.zeros(ctx.space.n_dofs)
    u1[ctx.space.interior_dofs] = sol.u
    return IterateX(lam=sol.lam, u=u1)


def mixing_iteration(levels, x0, params=None, cfg=None, resi_old=None):
    """Damped Newton step on levels[-1] from x0, an iterate already on its
    space: solve once, then halve theta from params.theta_init until resi
    does not rise, or raise StagnationError before theta drops below
    params.theta_min. Never re-solves during the line search. resi_old is
    x0's resi, computed here unless given; it sets the linear tolerance of
    an mg_cg step (`_step_config`). Returns the accepted iterate, its theta
    and its resi."""
    params = params or MixingParams()
    ctx = levels[-1]
    if resi_old is None:
        resi_old = resi(ctx, x0)
    step_cfg = _step_config(levels, cfg or SolverConfig(), resi_old, x0.lam)
    xhat = newton_step(levels, x0, step_cfg)
    theta = params.theta_init
    while True:
        lam = (1.0 - theta) * x0.lam + theta * xhat.lam
        u = (1.0 - theta) * x0.u + theta * xhat.u
        x_new = IterateX(lam=lam, u=u)
        resi_new = resi(ctx, x_new)
        if resi_new <= resi_old:
            return x_new, theta, resi_new
        if 0.5 * theta < params.theta_min:
            raise StagnationError(
                f"Newton step stagnated: resi would rise above "
                f"{resi_old:.6e} at every theta tried, to {resi_new:.6e} at "
                f"the last, theta = {theta:.6g}",
                resi_old=resi_old,
                resi_new=resi_new,
            )
        theta *= 0.5


def _stop_at(tol, x):
    """The resi at which a solve from x stops: tol, or resi's round-off."""
    return max(tol, RESI_ROUNDOFF * abs(x.lam))


def damped_newton(levels, x, resi_x, tol, max_steps, params, cfg=None):
    """Mixing steps on levels[-1] from x, whose resi is resi_x, until resi
    <= max(tol, RESI_ROUNDOFF * |lambda|) or max_steps steps are taken.
    Returns the last iterate, the resi history (the start included) and
    each step's theta."""
    history, thetas = [resi_x], []
    while history[-1] > _stop_at(tol, x) and len(thetas) < max_steps:
        x, theta, r = mixing_iteration(levels, x, params, cfg, history[-1])
        history.append(r)
        thetas.append(theta)
    return x, history, thetas


def newton_fixed_space(x0, ctx, tol=1e-10, max_steps=12, cfg=None):
    """Repeat the full Newton step within one space until resi <= tol.

    Returns the final iterate and the resi history (including the start),
    for empirical quadratic-convergence analysis.
    """
    x, history, _ = damped_newton([ctx], x0, resi(ctx, x0), tol, max_steps,
                                  FULL_STEP, cfg)
    return x, history


def _finalize(ops, x):
    """x L2-normalized on ops' space, lambda from the Rayleigh identity."""
    v = x.u / ops.l2_norm(x.u)
    return IterateX(lam=ops.rayleigh_lambda(v), u=v)


def _prolong_to_finest(contexts, v, level_idx):
    """Coefficients v on contexts[level_idx] carried up to contexts[-1]."""
    for idx in range(level_idx, len(contexts) - 1):
        v = _prolong_field(v, contexts[idx].space, contexts[idx + 1].space)
    return v


def _traced_resi(contexts, x, level_idx, resi_own=None):
    """Trace currency: resi of the iterate measured on the finest space of
    the run, so rows of one trace are compared in the same discrete norm.
    (The mixing acceptance test still compares on the step's own space.)
    On the finest level that is resi_own, the step's own value, if given."""
    if level_idx == len(contexts) - 1 and resi_own is not None:
        return resi_own
    v = _prolong_to_finest(contexts, x.u, level_idx)
    return resi(contexts[-1], IterateX(lam=x.lam, u=v))


def multigrid_newton(contexts, scf_cfg=None, solver_cfg=None, renormalize=False,
                     reference_lambda=None):
    """Coarse nonlinear solve, then one full Newton step per level."""
    return _run_driver(contexts, None, scf_cfg, solver_cfg, renormalize,
                       reference_lambda)


def multigrid_mixing(contexts, params=None, scf_cfg=None, solver_cfg=None,
                     renormalize=False, reference_lambda=None):
    """Coarse nonlinear solve, then one adaptively damped step per level."""
    return _run_driver(contexts, params or MixingParams(), scf_cfg,
                       solver_cfg, renormalize, reference_lambda)


def _run_driver(contexts, params, scf_cfg, solver_cfg, renormalize,
                reference_lambda):
    """The final iterate (renormalized on request) and one TraceRow per
    level, each holding that level's raw iterate. params None is plain
    Newton: the full step, and no theta in the trace."""
    # imported here: eigsolve builds the coarse solve on this module's step
    from .eigsolve import scf_solve

    solver_cfg = solver_cfg or SolverConfig()
    rows = []
    for idx, ctx in enumerate(contexts):
        t0 = time.perf_counter()
        theta = resi_new = None
        try:
            if idx == 0:
                x = scf_solve(ctx, scf_cfg)
            else:
                x0p = _prolong_iterate(x, contexts[idx - 1].space, ctx.space)
                # on the finest level x0p is the previous row's iterate
                # prolongated once, so that row's traced resi is x0p's resi
                resi_old = rows[-1].resi if idx == len(contexts) - 1 else None
                x, theta, resi_new = mixing_iteration(
                    contexts[:idx + 1], x0p, params or FULL_STEP, solver_cfg,
                    resi_old
                )
            step_ms = (time.perf_counter() - t0) * 1e3
            traced = _traced_resi(contexts, x, idx, resi_new)
        except (SolverError, CoercivityError, NonConvergenceError,
                StagnationError) as err:
            # every solver failure (exit 3) names the level it ended
            hint = ("; rerun with the mixing driver (--mixing)"
                    if isinstance(err, StagnationError) and params is None
                    else "")
            err.args = (f"level {idx + 1}: {err}{hint}",)
            raise
        rows.append(TraceRow(
            level=idx + 1,
            n_dofs=ctx.space.n_dofs,
            lam=x.lam,
            resi=traced,
            theta=None if params is None else theta,
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
            err_lambda=(abs(x.lam - reference_lambda)
                        if reference_lambda is not None else None),
            scf_iterations=x.scf_iterations,
            step_ms=step_ms,
            x=x,
        ))
    if renormalize:
        x = _finalize(contexts[-1], x)
    return x, rows
