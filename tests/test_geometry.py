from math import factorial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from conftest import random_polygon, random_polytope
from lpmink.geometry import (Body, GeometryError, WulffError, body_stats,
                             body_to_off, facet_jacobian,
                             lp_surface_area_measure, santalo_quadrature,
                             wulff_shape)
from lpmink.sphere import unit_ball_volume

SQUARE_NORMALS = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
CUBE_NORMALS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                         [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)


def test_square():
    B = wulff_shape(2, SQUARE_NORMALS, np.ones(4))
    assert B.volume == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(B.facet_areas, 2.0)
    assert np.allclose(B.centroid, 0.0, atol=1e-12)
    assert np.allclose(B.support_values, 1.0)


def test_square_with_tangent_constraint():
    normals = np.vstack([SQUARE_NORMALS, [[1 / np.sqrt(2), 1 / np.sqrt(2)]]])
    offsets = np.array([1, 1, 1, 1, np.sqrt(2)])
    B = wulff_shape(2, normals, offsets)
    assert B.volume == pytest.approx(4.0, abs=1e-10)
    assert B.facet_areas[4] == pytest.approx(0.0, abs=1e-10)
    assert B.support_values[4] == pytest.approx(np.sqrt(2), abs=1e-12)


def test_cube():
    B = wulff_shape(3, CUBE_NORMALS, np.ones(6))
    assert B.volume == pytest.approx(8.0, abs=1e-10)
    assert np.allclose(B.facet_areas, 4.0, atol=1e-10)
    assert np.allclose(B.centroid, 0.0, atol=1e-12)


def test_octahedron_merges_split_dual_facets():
    # the dual cube's square faces reach Qhull as two triangles each
    signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    B = wulff_shape(3, signs / np.sqrt(3), np.ones(8))
    assert len(B.vertices) == 6
    assert B.volume == pytest.approx(4 * np.sqrt(3), rel=1e-12)
    assert np.allclose(B.facet_areas, 3 * np.sqrt(3) / 2, rtol=1e-12)


def _hull_reference(body):
    """Volume, centroid and facet areas of body from a hull of its vertices."""
    dim = body.dim
    hull = ConvexHull(body.vertices)
    simplex = body.vertices[hull.simplices]
    edges = simplex[:, 1:] - simplex[:, :1]
    size = np.sqrt(np.linalg.det(edges @ edges.transpose(0, 2, 1))) / factorial(dim - 1)
    # each hull facet lies in the plane of the constraint with its normal
    cos = hull.equations[:, :dim] @ body.normals.T
    assert np.all(cos.max(axis=1) > 1 - 1e-9)
    areas = np.zeros(len(body.normals))
    np.add.at(areas, np.argmax(cos, axis=1), size)
    # cones from an interior point over the facet simplices
    apex = body.vertices.mean(axis=0)
    cone = size * -(hull.equations[:, :dim] @ apex + hull.equations[:, dim]) / dim
    centroid = (cone @ (simplex.sum(axis=1) + apex)) / (dim + 1) / cone.sum()
    return hull.volume, centroid, areas


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([2, 3]), k=st.integers(8, 60),
       seed=st.integers(0, 2 ** 32 - 1), spread=st.floats(0.0, 2.0),
       hinted=st.booleans())
def test_wulff_matches_hull_of_its_vertices(dim, k, seed, spread, hinted):
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(k, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.5, 0.5 + spread, k)
    try:
        body = wulff_shape(dim, normals, offsets,
                           interior_hint=np.zeros(dim) if hinted else None)
    except WulffError:
        assume(False)
    assert len(np.unique(body.vertices, axis=0)) == len(body.vertices)
    volume, centroid, areas = _hull_reference(body)
    assert body.volume == pytest.approx(volume, rel=1e-9)
    assert np.allclose(body.centroid, centroid, rtol=0, atol=1e-9)
    assert np.allclose(body.facet_areas, areas, rtol=0,
                       atol=1e-9 * areas.sum())


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), k=st.integers(6, 40),
       seed=st.integers(0, 2**32 - 1), margin=st.floats(0.05, 0.5))
def test_facet_jacobian_matches_central_differences(dim, k, seed, margin):
    # offsets of a random polytope plus a margin: the Wulff shape is that
    # polytope plus a circumscribed one, so no vertex lies on more than dim
    # facets and the areas are smooth in the offsets
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(k, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    points = rng.uniform(-0.5, 0.5, size=(dim + 3, dim))
    offsets = np.max(normals @ points.T, axis=1) + margin
    try:
        body = wulff_shape(dim, normals, offsets)
    except WulffError:
        assume(False)
    jac = facet_jacobian(body).toarray()
    d = 1e-6
    # the combinatorics must survive the perturbation: no facet or ridge
    # may vanish and no inactive constraint may touch the body
    reach = 10 * d * np.abs(jac).sum(axis=1)
    active = body.facet_areas > 0
    assume(np.all(body.facet_areas[active] > reach[active]))
    assume(np.all(offsets[~active] - body.support_values[~active] > 10 * d))
    if dim == 3:
        ends = body.ridges[1]
        assume(np.min(np.linalg.norm(body.vertices[ends[:, 0]]
                                     - body.vertices[ends[:, 1]], axis=1))
               > reach.max())
    fd = np.empty((k, k))
    for j in range(k):
        e = np.zeros(k)
        e[j] = d
        fd[:, j] = (wulff_shape(dim, normals, offsets + e).facet_areas
                    - wulff_shape(dim, normals, offsets - e).facet_areas) / (2 * d)
    assert np.allclose(jac, fd, rtol=0, atol=1e-7 * np.abs(jac).max())


def test_facet_jacobian_of_square_and_bare_body():
    body = wulff_shape(2, SQUARE_NORMALS, np.ones(4))
    assert facet_jacobian(body).toarray() == pytest.approx(
        np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]))
    bare = Body(2, body.normals, body.offsets, body.vertices, body.facet_areas,
                body.volume, body.centroid, body.support_values)
    with pytest.raises(GeometryError):
        facet_jacobian(bare)


def test_wall_duplicating_a_grid_normal_owns_its_edge():
    # a wall through the origin with the same normal as a looser grid
    # constraint, as in a cone restriction of a solved body
    ang = np.pi / 4 * np.arange(8)
    grid = np.column_stack([np.cos(ang), np.sin(ang)])
    normals = np.vstack([grid, grid[4]])
    B = wulff_shape(2, normals, np.append(np.ones(8), 0.0))
    assert B.facet_areas[8] > 0 and B.facet_areas[4] == 0.0
    assert B.support_values[8] == 0.0
    assert lp_surface_area_measure(B, 0.5)[8] == 0.0


def test_circumscribed_polytope_matches_ball(grid3):
    B = wulff_shape(3, grid3.nodes, np.ones(len(grid3)))
    kappa3 = unit_ball_volume(3)
    assert abs(B.volume - kappa3) <= 0.01 * kappa3
    assert abs(B.facet_areas.sum() - 4 * np.pi) <= 0.01 * 4 * np.pi


def test_circumscribed_polytope_refinement():
    # the discretization error of the circumscribed polytope shrinks under
    # grid refinement
    from lpmink.sphere import build_grid
    kappa3 = unit_ball_volume(3)
    errs = []
    for N in (125, 500, 2000):
        g = build_grid(3, N)
        B = wulff_shape(3, g.nodes, np.ones(N))
        errs.append(abs(B.volume - kappa3) / kappa3)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.0025


def test_support_square():
    B = wulff_shape(2, SQUARE_NORMALS, np.ones(4))
    assert B.support(np.array([1.0, 0.0])) == pytest.approx(1.0)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert B.support(u) == pytest.approx(np.sqrt(2))


def test_support_against_lp_oracle():
    rng = np.random.default_rng(42)
    body = random_polygon(rng)
    for _ in range(100):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        res = linprog(-u, A_ub=body.normals, b_ub=body.offsets,
                      bounds=[(None, None)] * 2, method="highs")
        assert res.success
        assert body.support(u) == pytest.approx(-res.fun, abs=1e-9)


def test_surface_measure_cube_and_square():
    B = wulff_shape(3, CUBE_NORMALS, np.ones(6))
    for area in B.facet_areas:
        assert area == pytest.approx(4.0, abs=1e-10)
    S = wulff_shape(2, SQUARE_NORMALS, np.ones(4))
    for area in S.facet_areas:
        assert area == pytest.approx(2.0, abs=1e-12)


def test_surface_measure_hexagon_edge_lengths():
    # regular hexagon with unit inradius: edge length 2/sqrt(3) from the
    # circumradius 2/sqrt(3) via the shoelace/side-length relation
    ang = np.pi / 3 * np.arange(6)
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    B = wulff_shape(2, normals, np.ones(6))
    assert np.allclose(B.facet_areas, 2 / np.sqrt(3), atol=1e-12)
    # shoelace oracle on the enumerated vertices
    idx = np.argsort(np.arctan2(B.vertices[:, 1], B.vertices[:, 0]))
    v = B.vertices[idx]
    area = 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
    assert B.volume == pytest.approx(area, abs=1e-12)


@pytest.mark.parametrize("n,p", [(2, 0.5), (2, -1.0), (3, 0.5), (3, -2.5)])
def test_lp_measure_cube(n, p):
    normals = SQUARE_NORMALS if n == 2 else CUBE_NORMALS
    B = wulff_shape(n, normals, np.ones(2 * n))
    for mass in lp_surface_area_measure(B, p):
        assert mass == pytest.approx(2.0 ** (n - 1), abs=1e-10)


def test_lp_measure_zero_support_facet():
    # square [0,2]^2 with the origin at a corner; p = 1/2
    offsets = np.array([2.0, 2.0, 0.0, 0.0])
    B = wulff_shape(2, SQUARE_NORMALS, offsets)
    masses = dict()
    for normal, mass in zip(B.normals, lp_surface_area_measure(B, 0.5)):
        masses[tuple(np.round(normal).astype(int))] = mass
    assert masses[(-1, 0)] == 0.0
    assert masses[(0, -1)] == 0.0
    assert masses[(1, 0)] == pytest.approx(2 ** 0.5 * 2, abs=1e-10)
    assert masses[(0, 1)] == pytest.approx(2 ** 0.5 * 2, abs=1e-10)


def test_lp_measure_scaling_law():
    rng = np.random.default_rng(7)
    body = random_polygon(rng)
    p, lam = -1.0, 2.0
    scaled = wulff_shape(2, body.normals, lam * body.offsets)
    m1 = lp_surface_area_measure(body, p)
    m2 = lp_surface_area_measure(scaled, p)
    assert np.allclose(m2, lam ** (2 - p) * m1, rtol=1e-9, atol=1e-12)


def test_lp_measure_rejects_bad_input():
    B = wulff_shape(2, SQUARE_NORMALS, np.ones(4))
    with pytest.raises(GeometryError):
        lp_surface_area_measure(B, 1.0)
    shifted = B.translated(np.array([5.0, 0.0]))
    with pytest.raises(GeometryError):
        lp_surface_area_measure(shifted, 0.5)


def test_body_stats_square_and_cube():
    B = wulff_shape(2, SQUARE_NORMALS, np.ones(4))
    vol, sigma, rho, R = body_stats(B)
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert R == pytest.approx(np.sqrt(2), abs=1e-12)
    C = wulff_shape(3, CUBE_NORMALS, np.ones(6))
    vol, sigma, rho, R = body_stats(C)
    assert rho == pytest.approx(1.0, abs=1e-10)
    assert R == pytest.approx(np.sqrt(3), abs=1e-10)


def test_volume_bound_100_random_polygons():
    rng = np.random.default_rng(2024)
    kappa1 = unit_ball_volume(1)
    for _ in range(100):
        body = random_polygon(rng, k=int(rng.integers(5, 16)))
        vol, sigma, rho, R = body_stats(body)  # raises if the bound fails
        assert vol <= (2 + 1) * kappa1 * rho * R * (1 + 1e-9)


def test_santalo_bound_random_bodies(grid2, grid3):
    rng = np.random.default_rng(5)
    kappa2, kappa3 = unit_ball_volume(2), unit_ball_volume(3)
    for _ in range(25):
        body = random_polygon(rng)
        assert santalo_quadrature(body, grid2) <= 1.02 * kappa2 ** 2 / body.volume
    for _ in range(10):
        body = random_polytope(rng)
        assert santalo_quadrature(body, grid3) <= 1.02 * kappa3 ** 2 / body.volume


def test_wulff_support_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        body = random_polygon(rng)
        again = wulff_shape(2, body.normals, body.support_values)
        assert again.volume == pytest.approx(body.volume, rel=1e-9)


def test_translation_equivariance():
    rng = np.random.default_rng(13)
    body = random_polygon(rng)
    t = np.array([0.4, -0.25])
    moved = wulff_shape(2, body.normals, body.offsets + body.normals @ t)
    assert np.allclose(moved.centroid, body.centroid + t, atol=1e-9)
    assert np.allclose(np.sort(moved.vertices @ t),
                       np.sort((body.vertices + t) @ t), atol=1e-9)
    assert np.allclose(moved.facet_areas, body.facet_areas, atol=1e-9)


def test_minkowski_closure_and_volume_identity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        body = random_polygon(rng)
        total = body.facet_areas.sum()
        assert np.linalg.norm(body.facet_areas @ body.normals) <= 1e-8 * total
        assert abs(body.volume
                   - body.support_values @ body.facet_areas / 2) <= 1e-8 * body.volume


def test_wulff_errors():
    # unbounded: all normals in a halfplane
    ang = np.linspace(-1.0, 1.0, 5)
    normals = np.column_stack([np.cos(ang), np.sin(ang)])
    with pytest.raises(WulffError):
        wulff_shape(2, normals, np.ones(5))
    # empty: contradictory pair
    with pytest.raises(WulffError):
        wulff_shape(2, SQUARE_NORMALS, np.array([1.0, 1.0, -2.0, 1.0]))
    with pytest.raises(GeometryError):
        wulff_shape(2, 2.0 * SQUARE_NORMALS, np.ones(4))


def test_off_export_cube():
    C = wulff_shape(3, CUBE_NORMALS, np.ones(6))
    text = body_to_off(C)
    lines = text.strip().splitlines()
    assert lines[0] == "OFF"
    nv, nf, _ = map(int, lines[1].split())
    assert nv == 8 and nf == 12


def test_scaled_and_translated_consistency():
    rng = np.random.default_rng(23)
    body = random_polygon(rng)
    s = body.scaled(2.0)
    assert s.volume == pytest.approx(4.0 * body.volume, rel=1e-12)
    assert np.allclose(s.facet_areas, 2.0 * body.facet_areas)
    s._check_invariants()
    t = body.translated(np.array([0.1, 0.2]))
    t._check_invariants()
