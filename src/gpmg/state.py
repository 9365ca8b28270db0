"""Shared iterate and trace records used by the solvers and the CLI."""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["IterateX", "TraceRow"]


@dataclass
class IterateX:
    """Product-space iterate (lambda, u): u is the coefficient array on
    one space, boundary entries zero."""

    lam: float
    u: np.ndarray
    # Newton steps of the coarse solve that made it (scf_solve only)
    scf_iterations: Optional[int] = None


@dataclass
class TraceRow:
    level: int
    n_dofs: int
    lam: float
    resi: Optional[float] = None
    theta: Optional[float] = None
    wall_time_ms: float = 0.0
    err_lambda: Optional[float] = None
    err_h1: Optional[float] = None
    # time of the level's step alone, without the finest-space resi
    # diagnostic that wall_time_ms includes unless a worker thread ran it
    step_ms: float = 0.0
    # the level's raw iterate, before any renormalization
    x: Optional[IterateX] = field(default=None, repr=False)
