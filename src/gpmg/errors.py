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

    Raised when an SPD-only solve path cannot proceed; the drivers catch
    this and recommend the mixing scheme.
    """


class NonConvergenceError(GpmgError):
    """The coarse nonlinear solve spent its step budget, stagnated, or
    ended in a state that is not the ground state."""


class DivergenceError(GpmgError):
    """Newton residuals grew instead of contracting."""


class StagnationError(GpmgError):
    """The mixing line search exhausted theta without residual decrease."""

    def __init__(self, message, resi_old=None, resi_new=None):
        super().__init__(message)
        self.resi_old = resi_old
        self.resi_new = resi_new
