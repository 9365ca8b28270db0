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
    box: str = ""
    degree: int = 1
    n0: int = 4
    levels: int = 3
    solver: SolverConfig = field(default_factory=SolverConfig)
    coarse: ScfConfig = field(default_factory=ScfConfig)
    mixing_enabled: bool = False
    mixing: MixingParams = field(default_factory=MixingParams)
    reference_lambda: Optional[float] = None

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ConfigurationError("problem.dim must be 1, 2, or 3")
        if self.degree not in (1, 2):
            raise ConfigurationError("discretization.degree must be 1 or 2")
        if self.n0 * self.degree < 2:
            raise ConfigurationError(
                "discretization.n0 must be positive, and at least 2 at "
                "degree 1: the coarsest mesh needs an interior dof")
        if self.levels < 1:
            raise ConfigurationError("discretization.levels must be positive")
        # fail early on a malformed box, potential or nonlinearity rather
        # than mid-run
        self.domain
        try:
            self.potential
        except ParseError as err:
            raise ConfigurationError(f"problem.potential: {err}") from err
        self.nonlinearity

    @property
    def domain(self):
        if not self.box:
            return BoxDomain.unit(self.dim)
        return BoxDomain(self.dim, *_parse_box(self.box, self.dim))

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


# Each key's converter and the field its value fills: a RunConfig field,
# or "section.name", field `name` of the section dataclass RunConfig holds
# as `section`. A key the file leaves out takes that field's default.
_SCHEMA = {
    "problem.dim": (_to_int, "dim"),
    "problem.potential": (_to_str, "potential_source"),
    "problem.zeta": (_to_float, "zeta"),
    "problem.sigma": (_to_float, "sigma"),
    "problem.box": (_to_str, "box"),
    "discretization.degree": (_to_int, "degree"),
    "discretization.n0": (_to_int, "n0"),
    "discretization.levels": (_to_int, "levels"),
    "solver.method": (_to_str, "solver.method"),
    "solver.rel_tol": (_to_float, "solver.rel_tol"),
    "solver.max_iter": (_to_int, "solver.max_iter"),
    "coarse.tol": (_to_float, "coarse.tol"),
    "coarse.max_outer": (_to_int, "coarse.max_outer"),
    "coarse.dof_cap": (_to_int, "coarse.dof_cap"),
    "mixing.enabled": (_to_bool, "mixing_enabled"),
    "mixing.theta_init": (_to_float, "mixing.theta_init"),
    "mixing.theta_min": (_to_float, "mixing.theta_min"),
    "reference_lambda": (_to_float, "reference_lambda"),
}

_SECTIONS = {"solver": SolverConfig, "coarse": ScfConfig,
             "mixing": MixingParams}

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
    fields = {}
    sections = {name: {} for name in _SECTIONS}
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
        convert, target = _SCHEMA[key]
        section, _, name = target.rpartition(".")
        values = sections[section] if section else fields
        if name in values:
            raise ConfigurationError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[name] = convert(key, raw)
    for key in _REQUIRED:
        if _SCHEMA[key][1] not in fields:
            raise ConfigurationError(f"{origin}: missing required key {key!r}")
    for section, cls in _SECTIONS.items():
        fields[section] = cls(**sections[section])
    return RunConfig(**fields)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    return parse_config_text(text, origin=str(path))
