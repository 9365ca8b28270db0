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
    # the level's own work (the CSV's time_ms): rows 1..L-2 leave out
    # their finest-space resi diagnostic, row L-1 keeps it (the finest step
    # reads it), row 1 includes building the finest Riesz hierarchy
    wall_time_ms: float = 0.0
    err_lambda: Optional[float] = None
    err_h1: Optional[float] = None
    # the level's iterate, as its step left it
    x: Optional[IterateX] = field(default=None, repr=False)
