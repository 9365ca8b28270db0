"""Multigrid Newton solver for Gross-Pitaevskii-type eigenvalue problems.

Finite-element discretization on Kuhn-triangulated boxes (P1/P2), damped
Newton coarse solves up a ladder of couplings, one-Newton-step-per-level
multigrid, and an adaptively damped (mixing) variant with guaranteed
per-step residual decrease.
"""

from .assembly import (
    FemSpace,
    Operators,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    prolongation_matrix,
)
from .config import RunConfig, load_config
from .eigsolve import ScfConfig, scf_solve, smallest_eigpair
from .elements import quadrature, reference_element
from .errors import (
    CoercivityError,
    ConfigurationError,
    GpmgError,
    NonConvergenceError,
    ResourceLimitError,
    SolverError,
    StagnationError,
    UsageError,
)
from .expr import Expr, evaluate, parse
from .linsolve import BorderedSystem, SolverConfig, solve_bordered
from .mesh import (
    BoxDomain,
    MeshHierarchy,
    MeshLevel,
    build_hierarchy,
    build_initial_mesh,
    refine_uniform,
)
from .newton import (
    MixingParams,
    assemble_newton_system,
    build_contexts,
    mixing_iteration,
    multigrid_mixing,
    multigrid_newton,
    newton_fixed_space,
    newton_step,
    resi,
)
from .nonlinearity import Nonlinearity
from .state import IterateX, TraceRow

__version__ = "0.1.0"
