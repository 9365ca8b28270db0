"""Product-space Newton step, multigrid drivers, and the mixing scheme.

One Newton step linearizes the constrained eigenproblem around (lam0, u0)
and solves the bordered system

    K u1 - lam1 M u0 = 2 (f'(u0^2) u0^3, phi) - lam0 M u0
    -(u0, u1)        = -1/2 - (u0, u0)/2

with K = stiffness + potential mass + M_{f(u0^2)} + 2 M_{f'(u0^2) u0^2}
- lam0 M on interior dofs. Every step is accepted by one rule, the mixing
step's resi_new <= resi_old; plain Newton is the mixing step at theta = 1.
The multigrid drivers solve the coarsest space nonlinearly once and take
one (possibly damped) Newton step per level. A step given the coarser
level's V-cycle solves by projected mg_cg, inexactly, its linear tolerance
following the step's own resi, and grows the run's one Newton V-cycle by
its level; a step given none solves directly.
"""

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    FemSpace,
    Operators,
    _interior_prolongation,
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
from .linsolve import BorderedSystem, SolverConfig, dot, solve_bordered
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
    defect = abs(1.0 - dot(u, mu))
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
    c = -0.5 - 0.5 * dot(u0i, m)
    return BorderedSystem(g=g, m=m, r=r, c=c, mass=ctx.mass,
                          shift=x0.lam + ctx.shift, start=u0i)


def _build_vcycle(ctx, u0, coarser=None, g=None):
    """The Newton V-cycle on ctx's level (`Operators.vcycle`) for g, G at
    the field u0 (`_spd_matrix`, assembled unless given), on coarser. So a
    run sets up each level's smoother once, on G at that level's own
    start, and the coarsest LU once."""
    return ctx.vcycle(_spd_matrix(ctx, u0) if g is None else g, coarser)


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


def _step_config(cfg, resi_old, lam0, linked):
    """cfg for a Newton step, linked or not to a coarser level's V-cycle,
    from an iterate with resi resi_old and eigenvalue lam0. A linked step,
    which solves by mg_cg, solves to max(cfg.rel_tol, (resi_old/|lam0|)^2):
    an inexact Newton step keeps the quadratic rate when its linear
    residual is O(||F||) relative to ||F|| (Dembo, Eisenstat & Steihaug,
    SIAM J. Numer. Anal. 19, 1982), and the step solves the full-form
    system for u1, whose right side is O(1), so that forcing term is a
    relative tolerance quadratic in resi. A direct step,
    whose cost does not depend on the tolerance, keeps cfg.rel_tol, and so
    does a step whose quadratic term is not below 1 (lam0 = 0 included)."""
    ratio = resi_old / abs(lam0) if lam0 != 0.0 else np.inf
    if linked and ratio < 1.0 and ratio**2 > cfg.rel_tol:
        return replace(cfg, rel_tol=ratio**2)
    return cfg


def newton_step(ctx, x0, cfg=None, coarser=None):
    """One Newton step on ctx's level from x0, an iterate already on its
    space. Given coarser, the next coarser level's Newton V-cycle, the step
    refines it with its own G and solves by projected mg_cg; without it
    the step solves directly. Returns the new iterate and the step's
    V-cycle (None on a direct step)."""
    cfg = cfg or SolverConfig()
    system = assemble_newton_system(ctx, x0)
    try:
        vcycle = (None if coarser is None
                  else _build_vcycle(ctx, x0.u, coarser, system.g))
        sol = solve_bordered(system, cfg, vcycle=vcycle)
    except CoercivityError as err:
        raise CoercivityError(
            f"{err}; Newton matrix at lambda0 = {x0.lam:.6e}, "
            f"zeta = {ctx.nl.zeta:g}") from err
    u1 = np.zeros(ctx.space.n_dofs)
    u1[ctx.space.interior_dofs] = sol.u
    return IterateX(lam=sol.lam, u=u1), vcycle


def mixing_iteration(ctx, x0, params=None, cfg=None, resi_old=None,
                     coarser=None):
    """Damped Newton step on ctx's level from x0, an iterate on its space:
    solve once (`newton_step` on coarser), then halve theta from
    params.theta_init until resi does not rise, or raise StagnationError
    before theta drops below params.theta_min. resi_old is x0's resi,
    computed here unless given; it sets the linear tolerance of a step
    given coarser (`_step_config`). Returns the accepted iterate, its
    theta, its resi and the step's V-cycle."""
    params = params or MixingParams()
    if resi_old is None:
        resi_old = resi(ctx, x0)
    cfg = _step_config(cfg or SolverConfig(), resi_old, x0.lam,
                       coarser is not None)
    xhat, vcycle = newton_step(ctx, x0, cfg, coarser)
    theta = params.theta_init
    while True:
        lam = (1.0 - theta) * x0.lam + theta * xhat.lam
        u = (1.0 - theta) * x0.u + theta * xhat.u
        x_new = IterateX(lam=lam, u=u)
        resi_new = resi(ctx, x_new)
        if resi_new <= resi_old:
            return x_new, theta, resi_new, vcycle
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


def damped_newton(ctx, x, resi_x, tol, max_steps, params, cfg=None):
    """Mixing steps on ctx's level from x, whose resi is resi_x, until resi
    <= max(tol, RESI_ROUNDOFF * |lambda|) or max_steps steps are taken.
    Returns the last iterate, the resi history (the start included) and
    each step's theta."""
    history, thetas = [resi_x], []
    while history[-1] > _stop_at(tol, x) and len(thetas) < max_steps:
        x, theta, r, _ = mixing_iteration(ctx, x, params, cfg, history[-1])
        history.append(r)
        thetas.append(theta)
    return x, history, thetas


def newton_fixed_space(x0, ctx, tol=1e-10, max_steps=12, cfg=None):
    """Repeat the full Newton step within one space until resi <= tol.

    Returns the final iterate and the resi history (including the start),
    for empirical quadratic-convergence analysis.
    """
    x, history, _ = damped_newton(ctx, x0, resi(ctx, x0), tol, max_steps,
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


@contextmanager
def _at_level(idx, params):
    """Every solver failure (exit 3) names the level it ended, idx + 1."""
    try:
        yield
    except (SolverError, CoercivityError, NonConvergenceError,
            StagnationError) as err:
        rerun = isinstance(err, StagnationError) and params is None
        hint = "; rerun with the mixing driver (--mixing)" if rerun else ""
        err.args = (f"level {idx + 1}: {err}{hint}",)
        raise


# Finest interior dofs from which `_run_driver` overlaps the trace's resi
# with the steps. On a 2-vCPU box the overlapped driver lost at 16,129 (2D
# P1, 4 levels) and 29,791 (example2.cfg, 4 levels), tied at 49,729 and
# gained from 65,025 (2D P1, 5 levels: 21%) on.
OVERLAP_MIN_DOFS = 50_000


def _run_driver(contexts, params, scf_cfg, solver_cfg, renormalize,
                reference_lambda):
    """The final iterate (renormalized on request) and one TraceRow per
    level, each holding that level's raw iterate. params None is plain
    Newton: the full step, and no theta in the trace. With at least
    OVERLAP_MIN_DOFS finest interior dofs, rows 1..L-2's traced resi run on
    a worker thread, outside their time_ms."""
    # imported here: eigsolve builds the coarse solve on this module's step
    from .eigsolve import scf_solve

    solver_cfg = solver_cfg or SolverConfig()
    finest = contexts[-1]
    overlap = finest.space.interior_dofs.size >= OVERLAP_MIN_DOFS
    rows, pending, vcycle = [], [], None
    pool = ThreadPoolExecutor(max_workers=1)  # no thread until a submit
    try:
        for idx, ctx in enumerate(contexts):
            t0 = time.perf_counter()
            theta = resi_new = traced = None
            with _at_level(idx, params):
                if idx == 0:
                    x = scf_solve(ctx, scf_cfg)
                    # each linked step refines this V-cycle by its level and
                    # solves by mg_cg. 1D steps solve directly: a 1D LU is a
                    # band solve, linear in the dofs, and as G's condition
                    # number grows as h^-2 a 1D P2 hierarchy meets PCG's
                    # round-off floor at a few thousand dofs (8.8e-10
                    # relative at 16,383), where 2D would need ~10^9
                    if len(contexts) > 1 and ctx.space.dim > 1:
                        vcycle = _build_vcycle(ctx, x.u)
                else:
                    x0p = _prolong_iterate(x, contexts[idx - 1].space,
                                           ctx.space)
                    # on the finest level x0p is the previous row's iterate
                    # prolongated once, so that row's traced resi is x0p's
                    resi_old = (rows[-1].resi if idx == len(contexts) - 1
                                else None)
                    x, theta, resi_new, vcycle = mixing_iteration(
                        ctx, x0p, params or FULL_STEP, solver_cfg, resi_old,
                        vcycle)
                step_ms = (time.perf_counter() - t0) * 1e3
                if overlap and idx < len(contexts) - 2:
                    if not pending:
                        # the worker only reads: build what it reads lazily,
                        # the Riesz solvers, interior prolongations and rule
                        finest._riesz_solver()
                        finest.space.rule(finest.space.weighted_degree)
                    # a copy of this thread's context carries np.errstate
                    pending.append(pool.submit(contextvars.copy_context().run,
                                               _traced_resi, contexts, x, idx))
                else:
                    traced = _traced_resi(contexts, x, idx, resi_new)
            rows.append(TraceRow(
                level=idx + 1,
                n_dofs=ctx.space.n_dofs,
                lam=x.lam,
                resi=traced,
                theta=None if params is None else theta,
                wall_time_ms=(time.perf_counter() - t0) * 1e3,
                err_lambda=(abs(x.lam - reference_lambda)
                            if reference_lambda is not None else None),
                step_ms=step_ms,
                x=x,
            ))
    finally:
        with pool:  # in level order: the lowest failing level's error wins
            for idx, future in enumerate(pending):
                with _at_level(idx, params):
                    rows[idx].resi = future.result()
    if renormalize:
        x = _finalize(contexts[-1], x)
    return x, rows
