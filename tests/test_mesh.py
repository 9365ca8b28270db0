import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpmg.errors import ConfigurationError, ResourceLimitError
from gpmg.mesh import (
    BoxDomain,
    build_hierarchy,
    build_initial_mesh,
    refine_uniform,
)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_count_is_factorial_per_cube(dim):
    n0 = (3,) * dim
    mesh = build_initial_mesh(BoxDomain.unit(dim), n0)
    assert mesh.n_cells == 3**dim * math.factorial(dim)
    assert mesh.n_vertices == 4**dim


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_volumes_tile_the_box(dim):
    dom = BoxDomain(dim, (0.0,) * dim, tuple(1.0 + 0.5 * i for i in range(dim)))
    mesh = build_initial_mesh(dom, (2,) * dim)
    vols = mesh.cell_volumes()
    assert np.all(vols > 0)
    assert np.isclose(vols.sum(), dom.volume, rtol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_refinement_nests_vertices_bitwise(dim):
    coarse = build_initial_mesh(BoxDomain.unit(dim), (2,) * dim)
    fine = refine_uniform(coarse)
    assert fine.level == coarse.level + 1
    assert fine.cells_per_axis == tuple(2 * n for n in coarse.cells_per_axis)
    fine_set = {tuple(v) for v in fine.vertices}
    for v in coarse.vertices:
        assert tuple(v) in fine_set  # exact, not approximate


def test_hierarchy_levels_and_cap():
    hier = build_hierarchy(BoxDomain.unit(2), (2, 2), 4)
    assert len(hier.levels) == 4
    assert [m.cells_per_axis[0] for m in hier.levels] == [2, 4, 8, 16]
    with pytest.raises(ResourceLimitError):
        build_hierarchy(BoxDomain.unit(3), (4, 4, 4), 6, max_vertices=10_000)


def test_boundary_flags_match_coordinates():
    mesh = build_initial_mesh(BoxDomain.unit(2), (3, 3))
    on_bd = (
        (mesh.vertices == 0.0) | (mesh.vertices == 1.0)
    ).any(axis=1)
    assert np.array_equal(mesh.boundary_vertex_flags, on_bd)


def test_invalid_inputs_rejected():
    with pytest.raises(ConfigurationError):
        build_initial_mesh(BoxDomain.unit(2), (2,))
    with pytest.raises(ConfigurationError):
        build_initial_mesh(BoxDomain.unit(1), (0,))
    with pytest.raises(ConfigurationError):
        BoxDomain(2, (0.0, 0.0), (1.0, 0.0))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_locate_reproduces_points(dim):
    mesh = build_initial_mesh(BoxDomain.unit(dim), (3,) * dim)
    rng = np.random.default_rng(7)
    pts = rng.random((200, dim))
    cells, bary = mesh.locate(pts)
    assert np.allclose(bary.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(bary >= -1e-12)
    rebuilt = np.einsum("pk,pkd->pd", bary, mesh.vertices[mesh.cells[cells]])
    assert np.allclose(rebuilt, pts, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_locate_handles_interface_points(dim, seed):
    mesh = build_initial_mesh(BoxDomain.unit(dim), (2,) * dim)
    rng = np.random.default_rng(seed)
    # points snapped onto cube faces and diagonals, where ties occur
    pts = np.round(rng.random((20, dim)) * 4) / 4.0
    cells, bary = mesh.locate(pts)
    rebuilt = np.einsum("pk,pkd->pd", bary, mesh.vertices[mesh.cells[cells]])
    assert np.allclose(rebuilt, pts, atol=1e-12)


def test_kuhn_refinement_is_self_similar():
    # each coarse simplex is the union of 2^d fine simplices: fine cell
    # volumes must be exactly coarse volume / 2^d and fine barycenters
    # must locate inside the coarse mesh consistently
    coarse = build_initial_mesh(BoxDomain.unit(2), (1, 1))
    fine = refine_uniform(coarse)
    assert np.allclose(
        fine.cell_volumes() * 4, coarse.cell_volumes()[0], rtol=1e-13
    )
    centers = fine.vertices[fine.cells].mean(axis=1)
    cells, _ = coarse.locate(centers)
    counts = np.bincount(cells, minlength=coarse.n_cells)
    assert np.all(counts == 4)
