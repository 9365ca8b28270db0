"""Flat dotted-key run configuration.

The file format is one `key = value` pair per line, `#` comments, blank
lines ignored. Keys are validated against the known schema before any
compute; unknown keys are configuration errors naming the offending line.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigurationError
from .expr import ParseError, parse as parse_expr
from .eigsolve import ScfConfig
from .linsolve import SolverConfig
from .mesh import BoxDomain
from .newton import MixingParams
from .nonlinearity import Nonlinearity

__all__ = ["RunConfig", "load_config", "parse_config_text"]


@dataclass
class RunConfig:
    dim: int
    potential_source: str
    zeta: float
    sigma: float = 1.0
    box_lower: tuple = ()
    box_upper: tuple = ()
    degree: int = 1
    n0: int = 4
    levels: int = 3
    solver: SolverConfig = field(default_factory=SolverConfig)
    coarse: ScfConfig = field(default_factory=ScfConfig)
    mixing_enabled: bool = False
    mixing: MixingParams = field(default_factory=MixingParams)
    reference_lambda: Optional[float] = None

    @property
    def domain(self):
        if not self.box_lower:
            return BoxDomain.unit(self.dim)
        return BoxDomain(self.dim, self.box_lower, self.box_upper)

    @property
    def potential(self):
        return parse_expr(self.potential_source, self.dim)

    @property
    def nonlinearity(self):
        return Nonlinearity(zeta=self.zeta, sigma=self.sigma)


def _to_bool(key, raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")


def _to_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected an integer, got {raw!r}")


def _to_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{key}: expected a finite number, got {raw!r}"
        )
    return value


def _to_str(key, raw):
    return raw.strip()


_SCHEMA = {
    "problem.dim": _to_int,
    "problem.potential": _to_str,
    "problem.zeta": _to_float,
    "problem.sigma": _to_float,
    "problem.box": _to_str,
    "discretization.degree": _to_int,
    "discretization.n0": _to_int,
    "discretization.levels": _to_int,
    "solver.method": _to_str,
    "solver.rel_tol": _to_float,
    "solver.max_iter": _to_int,
    "solver.pre_smooth": _to_int,
    "solver.post_smooth": _to_int,
    "coarse.tol": _to_float,
    "coarse.max_outer": _to_int,
    "coarse.dof_cap": _to_int,
    "mixing.enabled": _to_bool,
    "mixing.theta_init": _to_float,
    "mixing.theta_min": _to_float,
    "reference_lambda": _to_float,
}

_REQUIRED = ("problem.dim", "problem.potential", "problem.zeta")


def _parse_box(raw, dim):
    """`lo,hi` for all axes or semicolon-separated per-axis intervals."""
    parts = [p for p in raw.split(";") if p.strip()]
    if len(parts) == 1:
        parts = parts * dim
    if len(parts) != dim:
        raise ConfigurationError(
            f"problem.box: expected 1 or {dim} intervals, got {len(parts)}"
        )
    lower, upper = [], []
    for part in parts:
        nums = part.split(",")
        if len(nums) != 2:
            raise ConfigurationError(
                f"problem.box: interval {part!r} is not 'lo,hi'"
            )
        lo, hi = (_to_float("problem.box", n) for n in nums)
        if not lo < hi:
            raise ConfigurationError(f"problem.box: empty interval {part!r}")
        lower.append(lo)
        upper.append(hi)
    return tuple(lower), tuple(upper)


def parse_config_text(text, origin="<config>"):
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{origin}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigurationError(f"{origin}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = _SCHEMA[key](key, raw)
    for key in _REQUIRED:
        if key not in values:
            raise ConfigurationError(f"{origin}: missing required key {key!r}")

    dim = values["problem.dim"]
    if not 1 <= dim <= 3:
        raise ConfigurationError("problem.dim must be 1, 2, or 3")
    zeta = values["problem.zeta"]
    if zeta < 0:
        raise ConfigurationError("problem.zeta must be nonnegative")

    cfg = RunConfig(
        dim=dim,
        potential_source=values["problem.potential"],
        zeta=zeta,
        sigma=values.get("problem.sigma", 1.0),
        degree=values.get("discretization.degree", 1),
        n0=values.get("discretization.n0", 4),
        levels=values.get("discretization.levels", 3),
        reference_lambda=values.get("reference_lambda"),
    )
    if "problem.box" in values:
        cfg.box_lower, cfg.box_upper = _parse_box(values["problem.box"], dim)
    if cfg.degree not in (1, 2):
        raise ConfigurationError("discretization.degree must be 1 or 2")
    if cfg.n0 < 1:
        raise ConfigurationError("discretization.n0 must be positive")
    if cfg.levels < 1:
        raise ConfigurationError("discretization.levels must be positive")

    cfg.solver = SolverConfig(
        method=values.get("solver.method", "auto"),
        rel_tol=values.get("solver.rel_tol", 1e-10),
        max_iter=values.get("solver.max_iter", 1000),
        pre_smooth=values.get("solver.pre_smooth", 2),
        post_smooth=values.get("solver.post_smooth", 2),
    )
    cfg.coarse = ScfConfig(
        tol=values.get("coarse.tol", 1e-10),
        max_outer=values.get("coarse.max_outer", 500),
        dof_cap=values.get("coarse.dof_cap", 50_000),
    )
    cfg.mixing_enabled = values.get("mixing.enabled", False)
    cfg.mixing = MixingParams(**{
        name: values[f"mixing.{name}"]
        for name in ("theta_init", "theta_min") if f"mixing.{name}" in values
    })

    # fail early on a malformed potential rather than mid-run
    try:
        cfg.potential
    except ParseError as err:
        raise ConfigurationError(f"problem.potential: {err}") from err
    cfg.nonlinearity
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    return parse_config_text(text, origin=str(path))
