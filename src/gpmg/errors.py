"""Exception hierarchy shared across the solver library.

Exit-code mapping for the CLI lives in gpmg.cli; library code only raises.
"""


class GpmgError(Exception):
    """Base class for all library errors."""


class ConfigurationError(GpmgError):
    """Invalid configuration value or unparseable config input."""


class UsageError(GpmgError):
    """API misuse: mismatched spaces, wrong degrees, non-nested levels."""


class ResourceLimitError(GpmgError):
    """A configured size cap (vertices, dofs) would be exceeded."""


class SolverError(GpmgError):
    """A linear solve failed to reach its tolerance.

    Carries the achieved relative residual when available.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class CoercivityError(GpmgError):
    """The linearized operator lost positive definiteness.

    Raised when an SPD-only solve path cannot proceed; the CLI reports it
    as a solver failure (exit 3).
    """


class NonConvergenceError(GpmgError):
    """The coarse nonlinear solve spent its step budget, stagnated, or
    ended in a state that is not the ground state."""


class StagnationError(GpmgError):
    """A Newton step would raise resi at every theta it may try: the full
    step of plain Newton, or each theta of the mixing search down to
    theta_min. Carries the start's resi and the last trial's."""

    def __init__(self, message, resi_old=None, resi_new=None):
        super().__init__(message)
        self.resi_old = resi_old
        self.resi_new = resi_new
