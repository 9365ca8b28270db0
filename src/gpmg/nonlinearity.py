"""Power-family nonlinearity f(t) = zeta * t^sigma and its diagnostics.

The energy density is F(t) = zeta * t^(sigma+1) / (sigma+1), so f = F'.
The cubic Gross-Pitaevskii term corresponds to sigma = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, UsageError

__all__ = ["Nonlinearity", "AssumptionReport", "f_eval", "fprime_eval", "F_eval",
           "check_assumptions"]


@dataclass(frozen=True)
class Nonlinearity:
    zeta: float
    sigma: int = 1

    def __post_init__(self):
        if self.zeta < 0:
            raise ConfigurationError(f"zeta must be >= 0, got {self.zeta}")
        if self.sigma < 1:
            raise ConfigurationError(f"sigma must be >= 1, got {self.sigma}")


def _check_nonneg(t):
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise UsageError("nonlinearity argument must be nonnegative")
    return t


def f_eval(nl, t):
    """f(t) = zeta * t^sigma."""
    t = _check_nonneg(t)
    return nl.zeta * t**nl.sigma


def fprime_eval(nl, t):
    """f'(t) = zeta * sigma * t^(sigma-1)."""
    t = _check_nonneg(t)
    return nl.zeta * nl.sigma * t ** (nl.sigma - 1)


def F_eval(nl, t):
    """Antiderivative F(t) with F(0) = 0."""
    t = _check_nonneg(t)
    return nl.zeta * t ** (nl.sigma + 1) / (nl.sigma + 1)


@dataclass
class AssumptionReport:
    """Advisory verification of the convexity/growth assumptions."""

    checks: list = field(default_factory=list)

    def add(self, name, passed, detail):
        self.checks.append((name, bool(passed), detail))

    @property
    def all_passed(self):
        return all(p for _, p, _ in self.checks)

    def __str__(self):
        lines = []
        for name, passed, detail in self.checks:
            lines.append(f"[{'ok' if passed else 'FLAG'}] {name}: {detail}")
        return "\n".join(lines)


def check_assumptions(nl, t_samples):
    """Sampled diagnostics; reports violations, never raises.

    Checks F'' > 0 on the samples, the growth bound |F'(t)| <= C(1+t^m)
    with m < 2 (m = sigma for the power family), and local boundedness
    of F''(t) * t.
    """
    t = np.asarray(t_samples, dtype=float)
    t = t[t > 0]
    report = AssumptionReport()

    fpp = fprime_eval(nl, t)  # F'' = f'
    report.add(
        "F'' > 0 on (0, inf)",
        bool(np.all(fpp > 0)),
        f"min sampled F'' = {fpp.min() if t.size else float('nan'):g}"
        + (" (zeta = 0: degenerate linear problem)" if nl.zeta == 0 else ""),
    )

    m = nl.sigma
    report.add(
        "growth |F'(t)| <= C(1+t^m), m < 2",
        m < 2,
        f"power family has m = sigma = {m}",
    )

    fppt = fpp * t
    bounded = bool(np.all(np.isfinite(fppt)))
    report.add(
        "F''(t)*t locally bounded",
        bounded,
        f"max sampled F''(t)*t = {fppt.max() if t.size else 0.0:g}",
    )

    q = nl.sigma - 1
    report.add(
        "growth |f'(t)|+|f''(t)t| <= C(1+t^q), q < 1",
        q < 1,
        f"power family has q = sigma-1 = {q}",
    )

    # Finite-difference consistency of the analytic derivatives.
    ok = True
    worst = 0.0
    for ti in t:
        eps = 1e-5 * max(1.0, ti)
        fd_f = (F_eval(nl, ti + eps) - F_eval(nl, max(ti - eps, 0.0))) / (
            eps + min(eps, ti)
        )
        fd_fp = (f_eval(nl, ti + eps) - f_eval(nl, max(ti - eps, 0.0))) / (
            eps + min(eps, ti)
        )
        scale = max(1.0, abs(f_eval(nl, ti)), abs(fprime_eval(nl, ti)))
        err = max(abs(fd_f - f_eval(nl, ti)), abs(fd_fp - fprime_eval(nl, ti))) / scale
        worst = max(worst, err)
        ok = ok and err <= 1e-6
    report.add("derivative consistency (finite differences)", ok,
               f"worst relative deviation {worst:.2e}")
    return report
