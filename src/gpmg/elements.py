"""Lagrange reference elements (P1, P2) and simplex quadrature.

Everything is expressed in barycentric coordinates (lambda_0..lambda_d);
reference coordinates are x_i = lambda_i for i >= 1. Quadrature rules are
Gauss-Legendre in 1D and fully symmetric rules in 2D and 3D, exact for the
advertised total degree with positive weights and interior points.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ReferenceElement",
    "QuadratureRule",
    "reference_element",
    "shape_values",
    "shape_gradients",
    "quadrature",
]

MAX_EXACT_DEGREE = 6


@dataclass(frozen=True)
class ReferenceElement:
    dim: int
    degree: int
    n_basis: int
    node_coords: np.ndarray  # barycentric, (n_basis, dim+1)
    edges: tuple  # local vertex pairs carrying P2 edge dofs


def reference_element(dim, degree):
    if dim not in (1, 2, 3) or degree not in (1, 2):
        raise ConfigurationError(f"unsupported element dim={dim} degree={degree}")
    nverts = dim + 1
    vert_bary = np.eye(nverts)
    if degree == 1:
        return ReferenceElement(dim, 1, nverts, vert_bary, ())
    edges = tuple(itertools.combinations(range(nverts), 2))
    mids = np.array([(vert_bary[a] + vert_bary[b]) / 2.0 for a, b in edges])
    nodes = np.vstack([vert_bary, mids])
    return ReferenceElement(dim, 2, nverts * (nverts + 1) // 2, nodes, edges)


def _as_bary(elem, point):
    pt = np.atleast_2d(np.asarray(point, dtype=float))
    if pt.shape[1] != elem.dim + 1:
        raise ConfigurationError(
            f"expected barycentric point of length {elem.dim + 1}"
        )
    return pt


def shape_values(elem, point):
    """Nodal basis values at barycentric point(s); (n_basis,) or (npts, n_basis)."""
    lam = _as_bary(elem, point)
    if elem.degree == 1:
        vals = lam.copy()
    else:
        nverts = elem.dim + 1
        vals = np.empty((lam.shape[0], elem.n_basis))
        vals[:, :nverts] = lam * (2.0 * lam - 1.0)
        for e, (a, b) in enumerate(elem.edges):
            vals[:, nverts + e] = 4.0 * lam[:, a] * lam[:, b]
    return vals[0] if np.asarray(point).ndim == 1 else vals


def shape_gradients(elem, point):
    """Reference-coordinate gradients; (n_basis, dim) or (npts, n_basis, dim)."""
    lam = _as_bary(elem, point)
    d = elem.dim
    npts = lam.shape[0]
    # grad lambda_0 = -1, grad lambda_i = e_i
    glam = np.vstack([-np.ones((1, d)), np.eye(d)])  # (d+1, d)
    if elem.degree == 1:
        grads = np.broadcast_to(glam, (npts, d + 1, d)).copy()
    else:
        nverts = d + 1
        grads = np.empty((npts, elem.n_basis, d))
        grads[:, :nverts, :] = (4.0 * lam - 1.0)[:, :, None] * glam[None, :, :]
        for e, (a, b) in enumerate(elem.edges):
            grads[:, nverts + e, :] = 4.0 * (
                lam[:, a, None] * glam[b] + lam[:, b, None] * glam[a]
            )
    return grads[0] if np.asarray(point).ndim == 1 else grads


@dataclass(frozen=True)
class QuadratureRule:
    dim: int
    exact_degree: int
    points: np.ndarray  # barycentric, (nq, dim+1)
    weights: np.ndarray  # sum to 1/dim!


# Fully symmetric simplex rules: Dunavant (IJNME 21, 1985) on the
# triangle, Keast (CMAME 55, 1986) on the tetrahedron, each refined to
# double precision on its monomial moments (its 3D degree-4 entry is the
# positive 14-point rule of degree 5). (dim, degree) -> orbits (weight,
# pattern, free coordinates). A pattern spells one point of the orbit in
# barycentric coordinates: its k-th distinct letter stands for the k-th
# free coordinate, and its last letter for the value that makes the point
# sum to 1. The orbit is every distinct permutation of the pattern. The
# weights of a rule sum to 1 over its points.
_SYMMETRIC_RULES = {
    (2, 2): ((1 / 3, "aab", (1 / 6,)),),
    (2, 4): ((0.22338158967801147, "aab", (0.44594849091596489,)),
             (0.10995174365532187, "aab", (0.091576213509770743,))),
    (2, 6): ((0.11678627572637937, "aab", (0.24928674517091042,)),
             (0.050844906370206817, "aab", (0.063089014491502228,)),
             (0.082851075618373575, "abc",
              (0.31035245103378441, 0.053145049844816947))),
    (3, 2): ((0.25, "aaab", (0.13819660112501052,)),),
    (3, 4): ((0.07349304311636195, "aaab", (0.092735250310891226,)),
             (0.11268792571801585, "aaab", (0.31088591926330061,)),
             (0.042546020777081466, "aabb", (0.045503704125649649,))),
    (3, 6): ((0.039922750258167492, "aaab", (0.21460287125915203,)),
             (0.010077211055320643, "aaab", (0.040673958534611353,)),
             (0.055357181543654722, "aaab", (0.32233789014227551,)),
             (0.048214285714285714, "aabc",
              (0.063661001875017525, 0.26967233145831581))),
}


def _orbit(pattern, free):
    """The barycentric points of one orbit, (n, len(pattern))."""
    letters = sorted(set(pattern))
    counts = [pattern.count(c) for c in letters]
    last = (1.0 - sum(v * n for v, n in zip(free, counts))) / counts[-1]
    value = dict(zip(letters, (*free, last)))
    return np.array([[value[c] for c in p]
                     for p in sorted(set(itertools.permutations(pattern)))])


def quadrature(dim, exact_degree):
    """Rule exact for total degree <= exact_degree: Gauss-Legendre in 1D,
    and in 2D and 3D the symmetric rule of the least tabulated degree >=
    exact_degree."""
    if dim not in (1, 2, 3):
        raise ConfigurationError(f"unsupported quadrature dim {dim}")
    if not 1 <= exact_degree <= MAX_EXACT_DEGREE:
        raise ConfigurationError(
            f"exact_degree must be in [1, {MAX_EXACT_DEGREE}], got {exact_degree}"
        )
    if dim == 1:
        x, w = np.polynomial.legendre.leggauss((exact_degree + 2) // 2)
        t = (x + 1.0) / 2.0
        return QuadratureRule(1, exact_degree, np.column_stack([1.0 - t, t]),
                              w / 2.0)
    orbits = _SYMMETRIC_RULES[dim, exact_degree + exact_degree % 2]
    points = [_orbit(pattern, free) for _, pattern, free in orbits]
    weights = np.concatenate([np.full(len(p), w / math.factorial(dim))
                              for p, (w, _, _) in zip(points, orbits)])
    return QuadratureRule(dim, exact_degree, np.vstack(points), weights)
