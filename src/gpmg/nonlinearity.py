"""Power-family nonlinearity f(t) = zeta * t^sigma and its derivative.

f = F' for the energy density F(t) = zeta * t^(sigma+1) / (sigma+1).
The cubic Gross-Pitaevskii term corresponds to sigma = 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError

__all__ = ["Nonlinearity", "f_eval", "fprime_eval"]


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
