import math
from itertools import permutations, product

import numpy as np
import pytest

from gpmg.elements import (
    MAX_EXACT_DEGREE,
    quadrature,
    reference_element,
    shape_gradients,
    shape_values,
)
from gpmg.errors import ConfigurationError


def monomial_integral(powers):
    """Exact integral of prod x_i^a_i over the unit simplex."""
    d = len(powers)
    num = 1
    for a in powers:
        num *= math.factorial(a)
    return num / math.factorial(d + sum(powers))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", range(1, MAX_EXACT_DEGREE + 1))
def test_quadrature_exact_on_monomials(dim, degree):
    rule = quadrature(dim, degree)
    assert np.all(rule.weights > 0)
    assert np.isclose(rule.weights.sum(), 1.0 / math.factorial(dim), rtol=1e-14)
    x = rule.points[:, 1:]  # cartesian coords of the reference simplex
    for powers in product(range(degree + 1), repeat=dim):
        if sum(powers) > degree:
            continue
        vals = np.prod(x ** np.asarray(powers), axis=1)
        approx = float(rule.weights @ vals)
        assert np.isclose(approx, monomial_integral(powers), rtol=5e-14, atol=1e-16)


# Points of the symmetric rule of each tabulated degree; the conical
# products they replace had 4, 9, 16 (2D) and 8, 27, 64 (3D).
SYMMETRIC_POINTS = {2: {2: 3, 4: 6, 6: 12}, 3: {2: 4, 4: 14, 6: 24}}


def sorted_weighted_points(points, weights):
    """Rows (point, weight) in lexicographic order."""
    rows = np.column_stack([points, weights])
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("degree", range(1, MAX_EXACT_DEGREE + 1))
def test_symmetric_rule_properties(dim, degree):
    rule = quadrature(dim, degree)
    assert len(rule.weights) == SYMMETRIC_POINTS[dim][degree + degree % 2]
    assert np.all(rule.weights > 0)
    assert np.all(rule.points > 0)  # strictly interior
    assert np.allclose(rule.points.sum(axis=1), 1.0, rtol=0, atol=4e-16)
    # the same weighted points under every permutation of the barycentric
    # coordinates
    reference = sorted_weighted_points(rule.points, rule.weights)
    for perm in permutations(range(dim + 1)):
        permuted = sorted_weighted_points(rule.points[:, perm], rule.weights)
        assert np.allclose(permuted, reference, rtol=0, atol=1e-15)


def test_quadrature_rejects_unsupported_degree():
    with pytest.raises(ConfigurationError):
        quadrature(2, MAX_EXACT_DEGREE + 1)
    with pytest.raises(ConfigurationError):
        quadrature(2, 0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_partition_of_unity(dim, degree):
    elem = reference_element(dim, degree)
    rng = np.random.default_rng(3)
    w = rng.dirichlet(np.ones(dim + 1), size=40)  # random barycentric points
    phi = shape_values(elem, w)
    assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-13)
    grad = shape_gradients(elem, w)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2])
def test_nodal_basis_is_kronecker(dim, degree):
    elem = reference_element(dim, degree)
    phi = shape_values(elem, elem.node_coords)
    assert np.allclose(phi, np.eye(elem.n_basis), atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_p2_reproduces_quadratics(dim):
    # interpolating a quadratic at the P2 nodes must reproduce it exactly
    elem = reference_element(dim, 2)
    rng = np.random.default_rng(11)
    coef = rng.standard_normal((dim, dim))
    coef = coef + coef.T
    lin = rng.standard_normal(dim)

    def q(x):
        return np.einsum("pi,ij,pj->p", x, coef, x) + x @ lin

    nodes_x = elem.node_coords[:, 1:]
    w = rng.dirichlet(np.ones(dim + 1), size=30)
    phi = shape_values(elem, w)
    interp = phi @ q(nodes_x)
    assert np.allclose(interp, q(w[:, 1:]), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gradients_match_finite_differences(dim):
    elem = reference_element(dim, 2)
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(dim + 1), size=10)
    grad = shape_gradients(elem, w)  # derivative wrt cartesian coords
    h = 1e-6
    for axis in range(dim):
        wp = w.copy()
        wp[:, axis + 1] += h
        wp[:, 0] -= h
        wm = w.copy()
        wm[:, axis + 1] -= h
        wm[:, 0] += h
        fd = (shape_values(elem, wp) - shape_values(elem, wm)) / (2 * h)
        assert np.allclose(grad[:, :, axis], fd, atol=1e-7)
