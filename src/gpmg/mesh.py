"""Nested structured simplicial meshes on box domains.

Boxes are meshed by a tensor grid of cubes; each cube is split into
``dim!`` simplices along the Kuhn/Freudenthal pattern (intervals in 1D,
two triangles along the (+1,+1) diagonal in 2D, six tetrahedra in 3D).
This pattern is self-similar under dyadic refinement, so consecutive
levels give nested Lagrange spaces.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ResourceLimitError

__all__ = [
    "BoxDomain",
    "MeshLevel",
    "MeshHierarchy",
    "build_initial_mesh",
    "refine_uniform",
    "build_hierarchy",
]

DEFAULT_MAX_VERTICES = 5_000_000

# Kuhn simplices of the unit cube, one per permutation of the axes
# (lexicographic order; cell ids depend on it).
_PERMS = {d: list(itertools.permutations(range(d))) for d in (1, 2, 3)}


def _kuhn_offsets(dim):
    """Vertex offsets (n_simplices, dim+1, dim) of the unit-cube split."""
    offsets = []
    for perm in _PERMS[dim]:
        path = [np.zeros(dim, dtype=np.int64)]
        for axis in perm:
            step = path[-1].copy()
            step[axis] += 1
            path.append(step)
        offsets.append(path)
    return np.asarray(offsets)


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box [lower, upper] in 1, 2 or 3 dimensions."""

    dim: int
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ConfigurationError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.lower) != self.dim or len(self.upper) != self.dim:
            raise ConfigurationError("lower/upper length must equal dim")
        for lo, hi in zip(self.lower, self.upper):
            if not hi > lo:
                raise ConfigurationError(f"upper must exceed lower, got [{lo}, {hi}]")

    @staticmethod
    def unit(dim):
        return BoxDomain(dim, (0.0,) * dim, (1.0,) * dim)


class MeshLevel:
    """One level of a structured Kuhn-triangulated mesh.

    Vertices are the tensor grid points in C order; cells are grouped
    cube-major with the dim! Kuhn simplices of each cube in a fixed
    permutation order. Cells are int32 below 2^31 vertices, so products of
    vertex ids must be taken in int64.
    """

    def __init__(self, domain, cells_per_axis, level=1, steps=None):
        cells_per_axis = tuple(int(n) for n in cells_per_axis)
        if len(cells_per_axis) != domain.dim or any(n < 1 for n in cells_per_axis):
            raise ConfigurationError(f"invalid cells_per_axis {cells_per_axis}")
        self.domain = domain
        self.level = int(level)
        self.cells_per_axis = cells_per_axis
        d = domain.dim
        if steps is None:
            steps = tuple(
                (domain.upper[i] - domain.lower[i]) / cells_per_axis[i]
                for i in range(d)
            )
        self.steps = tuple(steps)
        # Axis coordinates as lower + i*step keeps coarse vertices bitwise
        # reproducible on refined levels (the refined step is step/2 exactly).
        axes = [
            domain.lower[i] + np.arange(cells_per_axis[i] + 1) * self.steps[i]
            for i in range(d)
        ]
        for i in range(d):
            axes[i][-1] = domain.upper[i]

        grids = np.meshgrid(*axes, indexing="ij")
        self.vertices = np.stack([g.ravel() for g in grids], axis=1)

        self.cells = self._build_cells()
        self.boundary_vertex_flags = self._boundary_flags()
        self.h = float(np.linalg.norm(self.steps))

    @property
    def dim(self):
        return self.domain.dim

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    def _vertex_shape(self):
        return tuple(n + 1 for n in self.cells_per_axis)

    def _build_cells(self):
        # a vertex's flat id is its multi-index dotted with the C-order
        # strides of the vertex grid, so each cell's ids are its cube's
        # lower-corner id plus the (d!, d+1) Kuhn offsets' ids
        idx = np.int32 if self.n_vertices < 2**31 else np.int64
        vshape = self._vertex_shape()
        strides = np.cumprod((1,) + vshape[:0:-1])[::-1].astype(idx)
        corner = np.zeros(1, dtype=idx)
        for ni, stride in zip(self.cells_per_axis, strides):
            corner = (corner[:, None] + np.arange(ni, dtype=idx) * stride
                      ).ravel()
        offsets = (_kuhn_offsets(self.dim) @ strides).astype(idx).ravel()
        return (corner[:, None] + offsets).reshape(-1, self.dim + 1)

    def _boundary_flags(self):
        flags = np.zeros(self.n_vertices, dtype=bool)
        for i in range(self.dim):
            on_face = (self.vertices[:, i] == self.domain.lower[i]) | (
                self.vertices[:, i] == self.domain.upper[i]
            )
            flags |= on_face
        return flags

    def locate(self, points):
        """Map points to (cell index, barycentric coords).

        Points on cell interfaces resolve to one of the adjacent cells
        deterministically; values of continuous fields are unaffected.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.dim
        rel = (pts - np.asarray(self.domain.lower)) / np.asarray(self.steps)
        rel = np.clip(rel, 0.0, np.asarray(self.cells_per_axis, dtype=float))
        cube = np.minimum(rel.astype(np.int64), np.asarray(self.cells_per_axis) - 1)
        t = np.clip(rel - cube, 0.0, 1.0)
        order = np.argsort(-t, axis=1, kind="stable")  # descending components
        s = np.take_along_axis(t, order, axis=1)
        bary = np.empty((pts.shape[0], d + 1))
        bary[:, 0] = 1.0 - s[:, 0]
        bary[:, 1:-1] = s[:, :-1] - s[:, 1:] if d > 1 else s[:, :0]
        bary[:, -1] = s[:, -1]

        rank_lookup = _perm_rank_lookup(d)
        key = np.zeros(pts.shape[0], dtype=np.int64)
        for j in range(d):
            key = key * d + order[:, j]
        rank = rank_lookup[key]
        cube_flat = np.ravel_multi_index(
            tuple(cube[:, i] for i in range(d)), self.cells_per_axis
        )
        nperm = len(_PERMS[d])
        return cube_flat * nperm + rank, bary


def _perm_rank_lookup(d):
    lookup = np.full(d**d, -1, dtype=np.int64)
    for rank, perm in enumerate(_PERMS[d]):
        key = 0
        for j in range(d):
            key = key * d + perm[j]
        lookup[key] = rank
    return lookup


@dataclass
class MeshHierarchy:
    """Nested mesh sequence, each level the dyadic refinement of the last."""

    domain: BoxDomain
    levels: list = field(default_factory=list)


def build_initial_mesh(domain, n0):
    """Structured Kuhn mesh with n0 cubes per axis (level 1)."""
    return MeshLevel(domain, n0, level=1)


def refine_uniform(mesh):
    """One dyadic refinement; nested w.r.t. the input by construction."""
    return MeshLevel(
        mesh.domain,
        tuple(2 * n for n in mesh.cells_per_axis),
        level=mesh.level + 1,
        steps=tuple(s / 2.0 for s in mesh.steps),
    )


def build_hierarchy(domain, n0, n_levels, max_vertices=DEFAULT_MAX_VERTICES):
    if n_levels < 1:
        raise ConfigurationError(f"n_levels must be >= 1, got {n_levels}")
    finest_nv = 1
    for n in n0:
        finest_nv *= int(n) * 2 ** (n_levels - 1) + 1
    if finest_nv > max_vertices:
        raise ResourceLimitError(
            f"finest level would have {finest_nv} vertices "
            f"(cap {max_vertices})"
        )
    levels = [build_initial_mesh(domain, n0)]
    for _ in range(n_levels - 1):
        levels.append(refine_uniform(levels[-1]))
    return MeshHierarchy(domain=domain, levels=levels)
