"""Acceptance gate: one test per shipped claim, one printed verdict each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
"""

import math
import time

import numpy as np
import pytest
import scipy.sparse as sp

from gpmg.assembly import (
    FemSpace,
    Operators,
    assemble_mass,
    prolongation_matrix,
)
from gpmg.eigsolve import ScfConfig, scf_solve
from gpmg.elements import (
    MAX_EXACT_DEGREE,
    quadrature,
    reference_element,
    shape_values,
)
from gpmg.expr import parse
from gpmg.linsolve import BorderedSystem, SolverConfig, solve_bordered
from gpmg.mesh import BoxDomain, build_hierarchy, build_initial_mesh, refine_uniform
from gpmg.newton import (
    MixingParams,
    _prolong_iterate,
    assemble_newton_system,
    build_contexts,
    mixing_iteration,
    multigrid_mixing,
    multigrid_newton,
    newton_fixed_space,
    newton_step,
    resi,
)
from gpmg.nonlinearity import Nonlinearity
from gpmg.state import IterateX
from field_oracle import evaluate_field
from scf_oracle import scf_oracle

EX1_POTENTIAL = "x1^2 + 2*x2^2 + 4*x3^2"
EX1_LAMBDA = 34.819449
EX2_POTENTIAL = ("x1^2 + x2^2 + x3^2 + sin(2*pi*x1)^2 + sin(2*pi*x2)^2"
                 " + sin(2*pi*x3)^2")


def verdict(number, title, passed, detail):
    line = f"ACCEPTANCE {number} ({title}): {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_acceptance_1_analytic_linear_case():
    t0 = time.perf_counter()
    hier = build_hierarchy(BoxDomain.unit(1), (4,), 5)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=0.0))
    x, trace = multigrid_newton(ctxs, reference_lambda=math.pi**2)
    elapsed = time.perf_counter() - t0
    errs = [r.err_lambda for r in trace]
    hs = [c.space.mesh.h for c in ctxs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    final_err = abs(x.lam - math.pi**2)
    ok = final_err <= 1e-6 and abs(slope - 4.0) <= 0.4 and elapsed < 5.0
    verdict(1, "analytic linear case", ok,
            f"|lambda - pi^2| = {final_err:.2e} (<= 1e-6), "
            f"slope = {slope:.3f} (4.0 +/- 0.4), {elapsed:.2f}s (< 5s)")


def test_acceptance_2_oracle_equivalence():
    t0 = time.perf_counter()
    hier = build_hierarchy(BoxDomain.unit(1), (16,), 3)
    nl = Nonlinearity(zeta=1.0)
    potential = parse("x1^2", 1)
    ctxs = build_contexts(hier, 2, nl, potential=potential)
    n_dofs = ctxs[-1].space.n_dofs
    x, _ = multigrid_newton(ctxs)
    oracle = scf_oracle(ctxs[-1])
    dlam = abs(x.lam - oracle.lam)
    dh1 = ctxs[-1].h1_norm(x.u - oracle.u)
    elapsed = time.perf_counter() - t0
    ok = n_dofs <= 200 and dlam <= 1e-8 and dh1 <= 1e-7 and elapsed < 10.0
    verdict(2, "oracle equivalence", ok,
            f"{n_dofs} dofs, |dlambda| = {dlam:.2e} (<= 1e-8), "
            f"H1 dist = {dh1:.2e} (<= 1e-7), {elapsed:.2f}s (< 10s)")


def test_acceptance_3_example1_desk_scale():
    t0 = time.perf_counter()
    hier = build_hierarchy(BoxDomain.unit(3), (4, 4, 4), 3)
    ctxs = build_contexts(hier, 2, Nonlinearity(zeta=1.0),
                          potential=parse(EX1_POTENTIAL, 3))
    x, trace = multigrid_newton(ctxs, reference_lambda=EX1_LAMBDA)
    elapsed = time.perf_counter() - t0
    sizes = [r.n_dofs for r in trace]
    errs = [r.err_lambda for r in trace]
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    final_err = abs(x.lam - EX1_LAMBDA)
    ok = (sizes == [729, 4913, 35937] and final_err <= 5e-2
          and all(r >= 3.0 for r in ratios) and elapsed < 300.0)
    verdict(3, "paper example 1 at desk scale", ok,
            f"dofs {sizes}, |lambda - {EX1_LAMBDA}| = {final_err:.2e} "
            f"(<= 5e-2), error ratios {[f'{r:.1f}' for r in ratios]} (>= 3), "
            f"{elapsed:.1f}s (< 5min)")


def test_acceptance_4_newton_quadratic_decay():
    t0 = time.perf_counter()
    space = FemSpace(build_initial_mesh(BoxDomain.unit(3), (4, 4, 4)), 2)
    nl = Nonlinearity(zeta=1.0)
    potential = parse(EX1_POTENTIAL, 3)
    ctx = Operators(space, nl, potential=potential)
    x_scf = scf_solve(ctx, ScfConfig(tol=1e-2))
    # push the start to the edge of the basin so several quadratic steps
    # are visible before the solver-tolerance floor
    rng = np.random.default_rng(0)
    u = x_scf.u.copy()
    ix = space.interior_dofs
    u[ix] += 0.6 * rng.standard_normal(ix.size) / math.sqrt(ix.size) \
        * np.linalg.norm(u)
    u /= ctx.l2_norm(u)
    x0 = IterateX(lam=x_scf.lam + 5.0, u=u)
    x, hist = newton_fixed_space(x0, ctx, tol=1e-11, max_steps=12)
    elapsed = time.perf_counter() - t0
    ratios = [hist[i + 1] / hist[i] ** 2 for i in range(len(hist) - 1)
              if hist[i + 1] > 1e-12]
    tail = ratios[-3:]  # asymptotic regime
    spread = max(tail) / min(tail) if len(tail) == 3 else math.inf
    ok = (len(ratios) >= 3 and spread < 10.0 and hist[-1] < 1e-9
          and elapsed < 30.0)
    verdict(4, "newton quadratic decay", ok,
            f"resi history {[f'{h:.2e}' for h in hist]}, quad ratios "
            f"{[f'{r:.3f}' for r in ratios]} (tail spread {spread:.2f} < 10), "
            f"final {hist[-1]:.1e} (< 1e-9), {elapsed:.1f}s (< 30s)")


def test_acceptance_5_mixing_monotonicity():
    t0 = time.perf_counter()
    hier = build_hierarchy(BoxDomain.unit(3), (2, 2, 2), 3)
    nl = Nonlinearity(zeta=100.0)
    potential = parse(EX2_POTENTIAL, 3)
    ctxs = build_contexts(hier, 2, nl, potential=potential)
    params = MixingParams(theta_init=0.5)

    # replay the driver level by level to observe the acceptance contract
    x = scf_solve(ctxs[0])
    thetas = []
    accept_ok = True
    for idx in range(1, 3):
        x0p = _prolong_iterate(x, ctxs[idx - 1].space, ctxs[idx].space)
        resi_old = resi(ctxs[idx], x0p)
        x, theta, _ = mixing_iteration(ctxs[:idx + 1], x0p, params=params)
        accept_ok = accept_ok and resi(ctxs[idx], x) <= resi_old
        thetas.append(theta)

    _, trace = multigrid_mixing(ctxs, params=params)
    resis = [r.resi for r in trace]
    ratios = [resis[i] / resis[i + 1] for i in range(len(resis) - 1)]
    elapsed = time.perf_counter() - t0
    theta_ok = (sum(1 for t in thetas if t != 0.5) <= 1
                and all(t in (1.0, 0.5, 0.25) for t in thetas))
    ok = (accept_ok and theta_ok
          and all(1.7 <= r <= 2.3 for r in ratios) and elapsed < 300.0)
    verdict(5, "mixing monotonicity", ok,
            f"accepted steps decrease resi: {accept_ok}, theta = {thetas} "
            f"(constant 0.5 +/- one halving), resi ratios "
            f"{[f'{r:.2f}' for r in ratios]} (in [1.7, 2.3]), "
            f"{elapsed:.1f}s (< 5min)")


def _jacobian_deviation(space, nl, potential):
    """max |FD - J| / max |J| of the bordered Newton Jacobian at a rough
    normalized iterate, by central differences of the residual and of the
    constraint."""
    ctx = Operators(space, nl, potential=parse(potential, space.dim))
    ix = space.interior_dofs
    n = ix.size
    rng = np.random.default_rng(1)
    u0 = np.zeros(space.n_dofs)
    u0[ix] = 0.8 + 0.2 * rng.standard_normal(n)
    u0 /= ctx.l2_norm(u0)
    lam0 = ctx.rayleigh_lambda(u0)
    system = assemble_newton_system(ctx, IterateX(lam=lam0, u=u0))
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = system.k.toarray()
    jac[:n, n] = -system.m
    jac[n, :n] = -system.m

    def g(u_int, lam):
        u = np.zeros(space.n_dofs)
        u[ix] = u_int
        return np.concatenate([
            ctx.residual(lam, u),
            [0.5 - 0.5 * float(u_int @ (ctx.mass @ u_int))],
        ])

    h = 1e-6
    fd = np.zeros_like(jac)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        fd[:, j] = (g(u0[ix] + e, lam0) - g(u0[ix] - e, lam0)) / (2 * h)
    fd[:, n] = (g(u0[ix], lam0 + h) - g(u0[ix], lam0 - h)) / (2 * h)
    return np.max(np.abs(fd - jac)) / np.max(np.abs(jac))


def test_acceptance_6_jacobian_correctness():
    # the cubic term on 1D P2, and sigma != 1 on 2D P1, whose
    # f(u^2) = u^(2 sigma) no quadrature rule integrates exactly
    cases = [(1, 2, (12,), 1.0), (2, 1, (8, 8), 1.5), (2, 1, (8, 8), 3.0)]
    ok, details = True, []
    for dim, degree, cells, sigma in cases:
        space = FemSpace(build_initial_mesh(BoxDomain.unit(dim), cells), degree)
        rel = _jacobian_deviation(space, Nonlinearity(zeta=1.0, sigma=sigma),
                                  "x1^2" if dim == 1 else "x1^2 + 2*x2^2")
        ok = ok and space.n_dofs <= 100 and rel <= 1e-6
        details.append(f"{dim}D P{degree} sigma={sigma:g}, {space.n_dofs} "
                       f"dofs: {rel:.2e}")
    verdict(6, "jacobian correctness", ok,
            "max relative deviation (<= 1e-6) " + "; ".join(details))


def test_acceptance_7_bordered_solver_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 51))
        a = rng.standard_normal((n, n))
        system = BorderedSystem(
            g=sp.csr_matrix(a @ a.T + n * np.eye(n)),
            m=rng.standard_normal(n),
            r=rng.standard_normal(n),
            c=rng.standard_normal(),
        )
        sol = solve_bordered(system)
        full = np.zeros((n + 1, n + 1))
        full[:n, :n] = system.k.toarray()
        full[:n, n] = full[n, :n] = -system.m
        dense = np.linalg.solve(full, np.concatenate([system.r, [system.c]]))
        worst = max(worst, float(np.max(np.abs(sol.u - dense[:n]))),
                    abs(sol.lam - dense[n]))
    ok = worst <= 1e-8
    verdict(7, "bordered solver equivalence", ok,
            f"25 random SPD instances (n <= 50), max |diff| = {worst:.2e} "
            f"(<= 1e-8)")


def test_acceptance_8_linear_complexity():
    def best_per_call(fns, rounds=7, batch_s=0.1):
        """Best per-call time of each fn. Each round times one batch of
        every fn back to back, so a change in machine load hits them alike;
        a batch repeats its fn for at least batch_s, so a solve of a
        millisecond is not timed by one call, whose noise is its own size."""
        calls = []
        for fn in fns:
            t0 = time.perf_counter()
            fn()
            calls.append(math.ceil(batch_s / (time.perf_counter() - t0)))
        best = [math.inf] * len(fns)
        for _ in range(rounds):
            for i, (fn, n) in enumerate(zip(fns, calls)):
                t0 = time.perf_counter()
                for _ in range(n):
                    fn()
                best[i] = min(best[i], (time.perf_counter() - t0) / n)
        return best

    hier = build_hierarchy(BoxDomain.unit(2), (16, 16), 5)
    ctxs = build_contexts(hier, 1, Nonlinearity(zeta=1.0))
    x = scf_solve(ctxs[0])
    per_dof, ratios = [], []
    for idx in range(1, 5):
        ctx = ctxs[idx]
        x0p = _prolong_iterate(x, ctxs[idx - 1].space, ctx.space)
        system = assemble_newton_system(ctx, x0p)
        from gpmg.newton import _build_vcycle

        vc = _build_vcycle(ctxs[:idx + 1], system.g)
        t_mg, t_dir = best_per_call([
            lambda: solve_bordered(system, SolverConfig(method="mg_cg"),
                                   vcycle=vc),
            lambda: solve_bordered(system, SolverConfig(method="direct")),
        ])
        per_dof.append(t_mg / ctx.space.n_dofs)
        ratios.append(t_dir / t_mg)
        x = newton_step(ctxs[:idx + 1], x0p, SolverConfig())
    med = float(np.median(per_dof))
    within = all(med / 3.0 <= p <= 3.0 * med for p in per_dof)
    monotone = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))
    ok = within and monotone
    verdict(8, "linear complexity", ok,
            f"mg us/dof {[f'{p * 1e6:.1f}' for p in per_dof]} "
            f"(each within x3 of median {med * 1e6:.1f}), direct/mg ratios "
            f"{[f'{r:.3f}' for r in ratios]} (monotone increasing)")


def test_acceptance_9_invariant_suites():
    details = []

    # mesh nestedness (bitwise)
    coarse = build_initial_mesh(BoxDomain.unit(3), (2, 2, 2))
    fine = refine_uniform(coarse)
    fine_set = {tuple(v) for v in fine.vertices}
    nested = all(tuple(v) in fine_set for v in coarse.vertices)
    details.append(f"nestedness {nested}")

    # prolongation exactness
    rng = np.random.default_rng(3)
    worst_p = 0.0
    for degree in (1, 2):
        cs, fs = FemSpace(coarse, degree), FemSpace(fine, degree)
        u = rng.standard_normal(cs.n_dofs)
        pts = rng.random((40, 3))
        worst_p = max(worst_p, float(np.max(np.abs(
            evaluate_field(cs, u, pts)
            - evaluate_field(fs, prolongation_matrix(cs, fs) @ u, pts)))))
    details.append(f"prolongation dev {worst_p:.1e}")

    # quadrature exactness sweep (monomial oracle)
    worst_q = 0.0
    for dim in (1, 2, 3):
        for deg in range(1, MAX_EXACT_DEGREE + 1):
            rule = quadrature(dim, deg)
            x = rule.points[:, 1:]
            for a in range(deg + 1):
                got = float(rule.weights @ x[:, 0] ** a)
                want = math.factorial(a) / math.factorial(dim + a)
                worst_q = max(worst_q, abs(got - want) / want)
    details.append(f"quadrature rel dev {worst_q:.1e}")

    # partition of unity
    worst_u = 0.0
    for dim in (1, 2, 3):
        for degree in (1, 2):
            elem = reference_element(dim, degree)
            w = rng.dirichlet(np.ones(dim + 1), size=25)
            worst_u = max(worst_u, float(np.max(np.abs(
                shape_values(elem, w).sum(axis=1) - 1.0))))
    details.append(f"unity dev {worst_u:.1e}")

    # normalization after scf_solve
    space = FemSpace(build_initial_mesh(BoxDomain.unit(1), (16,)), 2)
    nl = Nonlinearity(zeta=5.0)
    xs = scf_solve(Operators(space, nl))
    ix = space.interior_dofs
    mu0 = assemble_mass(space) @ xs.u[ix]
    norm_def = abs(float(xs.u[ix] @ mu0) - 1.0)
    details.append(f"|u'Mu - 1| {norm_def:.1e}")

    # border-equation exactness after a Newton solve
    x1 = newton_step([Operators(space, nl)], xs)
    border = abs(-float(mu0 @ x1.u[ix])
                 - (-0.5 - 0.5 * float(xs.u[ix] @ mu0)))
    details.append(f"border eq dev {border:.1e}")

    ok = (nested and worst_p <= 1e-12 and worst_q <= 1e-13
          and worst_u <= 1e-12 and norm_def <= 1e-10 and border <= 1e-10)
    verdict(9, "invariant suites", ok, ", ".join(details))
