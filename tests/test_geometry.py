from math import factorial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from conftest import cube_group, random_polygon, random_polytope
from lpmink import geometry
from lpmink.geometry import (Body, GeometryError, WulffError, body_stats,
                             body_to_off, facet_jacobian,
                             lp_surface_area_measure, polygon_all_active,
                             polytope_same_type, santalo_quadrature, wulff_shape)
from lpmink.measures import density_measure
from lpmink.solver import solve
from lpmink.sphere import build_grid, unit_ball_volume

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
        ends = body.ridges.ends
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
    # a body without a ridge record cannot be built
    with pytest.raises(TypeError):
        Body(2, body.normals, body.offsets, body.vertices, body.facet_areas,
             body.volume, body.centroid, body.support_values)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       inactive=st.booleans(), columns=st.sampled_from([0, 1, 4]),
       newton=st.booleans(), built=st.sampled_from(["wulff", "same type", "new ridges"]),
       mixed=st.booleans())
@example(n=2, seed=0, inactive=True, columns=4, newton=False, built="wulff", mixed=False)
@example(n=3, seed=1, inactive=True, columns=0, newton=True, built="wulff", mixed=False)
@example(n=3, seed=2, inactive=False, columns=4, newton=False, built="same type",
         mixed=False)
@example(n=3, seed=3, inactive=True, columns=1, newton=True, built="new ridges",
         mixed=False)
@example(n=3, seed=4, inactive=False, columns=4, newton=False, built="wulff", mixed=True)
def test_solve_facet_system_matches_a_dense_solve(n, seed, inactive, columns, newton,
                                                  built, mixed):
    # (diag(a) + c dS/dh) X = rhs for the finish's coefficient c = 1 and the
    # descent's c = -lambda, one right-hand side (columns 0) or several, on
    # smooth bodies with every facet active or three pushed off the body.
    # The body is built by wulff_shape, or after a solve on another body:
    # by polytope_same_type on that body's ridges, so it reuses their
    # pattern, or by wulff_shape at offsets whose ridges differ. A diagonal
    # of mixed signs makes the system indefinite, so SuperLU pivots off it
    rng = np.random.default_rng(seed)
    U = build_grid(n, 64 if n == 2 else 60).nodes

    def offsets(pushed):
        h = 1.0 + 0.1 * U @ rng.normal(size=n) + 0.05 * (U ** 2) @ rng.uniform(-1.0, 1.0, n)
        if pushed:
            h[rng.choice(len(U), size=3, replace=False)] += 0.5
        return h

    if built == "wulff":
        body = wulff_shape(n, U, offsets(inactive))
    else:
        assume(n == 3 and not (built == "same type" and inactive))
        # the ridges of a body with three facets pushed off are not the body's
        solved = wulff_shape(n, U, offsets(built == "new ridges"))
        geometry.solve_facet_system(solved, np.ones(len(U)), 1.0, np.ones(len(U)))
        if built == "same type":
            try:
                body = polytope_same_type(
                    solved, solved.offsets * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, len(U))),
                    np.zeros(n))
            except WulffError:
                assume(False)
            assert body.ridges is solved.ridges and body.ridges.pattern is not None
        else:
            body = wulff_shape(n, U, offsets(inactive))
            assert body.ridges.pattern is None and _ridge_set(body) != _ridge_set(solved)
    assert inactive == bool(np.any(body.facet_areas == 0))
    jacobian = facet_jacobian(body).toarray()
    # the pattern read is the body's own: one entry above the diagonal per ridge
    assert {tuple(k) for k in np.argwhere(np.triu(jacobian, 1)).tolist()} == _ridge_set(body)
    a = rng.uniform(0.5, 2.0, len(U)) * np.mean(body.facet_areas)
    if mixed:
        a *= rng.choice([-1.0, 1.0], len(U))
    coef = 1.0 if newton else -rng.uniform(0.1, 2.0)
    rhs = rng.normal(size=(len(U), columns) if columns else len(U))
    dense = np.diag(a) + coef * jacobian
    # a draw near the system's one sign change says nothing about the solve
    assume(np.linalg.cond(dense) < 1e6)
    expected = np.linalg.solve(dense, rhs)
    X = geometry.solve_facet_system(body, a, coef, rhs)
    assert X.shape == rhs.shape
    assert np.linalg.norm(X - expected) <= 1e-10 * np.linalg.norm(expected)


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


def _signed_edges(normals, offsets):
    """Signed lengths of the edges that lines adjacent in angle cut out."""
    order = np.argsort(np.arctan2(normals[:, 1], normals[:, 0]))
    u, h = normals[order], offsets[order]
    v, hv = np.roll(u, -1, axis=0), np.roll(h, -1)
    det = u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]
    corners = np.column_stack([h * v[:, 1] - hv * u[:, 1],
                               hv * u[:, 0] - h * v[:, 0]]) / det[:, None]
    edges = corners - np.roll(corners, 1, axis=0)
    return edges[:, 1] * u[:, 0] - edges[:, 0] * u[:, 1]


@settings(max_examples=80, deadline=None)
@given(N=st.integers(8, 256), seed=st.integers(0, 2 ** 32 - 1),
       bump=st.floats(-8.0, -1.0), share=st.floats(0.0, 1.0))
def test_polygon_all_active_matches_wulff_shape(N, seed, bump, share):
    # circle grid nodes in random order; a share of the unit offsets is
    # perturbed by up to 10^bump, which makes some facets inactive once it
    # passes about (2 pi / N)^2 / 2
    rng = np.random.default_rng(seed)
    normals = build_grid(2, N).nodes[rng.permutation(N)]
    offsets = 1.0 + (rng.uniform(size=N) < share) * rng.uniform(-1.0, 1.0, N) * 10.0 ** bump
    origin = np.zeros(2)
    body = wulff_shape(2, normals, offsets, validate=False, interior_hint=origin)
    # near a zero signed edge Qhull's merging and the sign may differ
    signed = _signed_edges(normals, offsets)
    assume(np.min(np.abs(signed)) > 1e-9 * body.facet_areas.sum())
    if not np.all(body.facet_areas > 0):
        with pytest.raises(WulffError):
            polygon_all_active(normals, offsets, origin)
        return
    poly = polygon_all_active(normals, offsets, origin)
    assert len(poly.vertices) == len(body.vertices) == N
    gaps = np.linalg.norm(poly.vertices[:, None] - body.vertices[None], axis=2)
    assert np.max(np.min(gaps, axis=1)) <= 1e-12
    assert poly.facet_areas == pytest.approx(body.facet_areas, rel=1e-12)
    assert np.array_equal(poly.support_values, body.support_values)
    assert poly.volume == pytest.approx(body.volume, rel=1e-12)
    assert np.allclose(poly.centroid, body.centroid, rtol=0, atol=1e-12)
    poly._check_invariants()


def test_polygon_all_active_errors():
    square = polygon_all_active(SQUARE_NORMALS[::-1], np.ones(4), [0.3, -0.2])
    assert square.volume == pytest.approx(4.0, abs=1e-12)
    square._check_invariants()
    assert np.allclose(facet_jacobian(square).toarray(), facet_jacobian(
        wulff_shape(2, SQUARE_NORMALS[::-1], np.ones(4))).toarray())
    for offsets, hint in [([1.0, np.nan, 1.0, 1.0], [0.0, 0.0]),
                          ([1.0, np.inf, 1.0, 1.0], [0.0, 0.0]),
                          ([1.0, 1.0, 1.0, 1.0], [1.0 - 5e-7, 0.0]),
                          ([1.0, 1.0, 1.0, 1.0], [2.0, 0.0])]:
        with pytest.raises(WulffError):
            polygon_all_active(SQUARE_NORMALS, np.array(offsets), hint)
    # a gap of pi leaves the polygon unbounded; a repeated normal a gap of 0
    for normals in (SQUARE_NORMALS[:3], SQUARE_NORMALS[[0, 1, 1, 2, 3]]):
        with pytest.raises(WulffError):
            polygon_all_active(normals, np.ones(len(normals)), [0.0, 0.0])
    # the tangent line of test_square_with_tangent_constraint is inactive
    normals = np.vstack([SQUARE_NORMALS, [[1 / np.sqrt(2), 1 / np.sqrt(2)]]])
    for cut in (np.sqrt(2), 1.5):
        with pytest.raises(WulffError):
            polygon_all_active(normals, np.array([1, 1, 1, 1, cut]), [0.0, 0.0])
    body = polygon_all_active(normals, np.array([1, 1, 1, 1, 1.2]), [0.0, 0.0])
    assert body.facet_areas[4] == pytest.approx(2 * np.sqrt(2) - 2.4, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(8, 256), seed=st.integers(0, 2 ** 32 - 1),
       decades=st.floats(1.0, 7.0))
def test_a_handed_on_polygon_record_builds_the_fresh_polygon(N, seed, decades):
    # circle grid nodes in random order, so that their angular order is not
    # their index order: a polygon built with the record of one at other
    # offsets is, bit for bit, the polygon a fresh build makes, and refuses
    # what it refuses
    rng = np.random.default_rng(seed)
    normals = build_grid(2, N).nodes[rng.permutation(N)]
    origin = np.zeros(2)
    first = polygon_all_active(normals, np.exp(0.1 * normals @ rng.normal(size=2)), origin)
    offsets = first.offsets * np.exp(10.0 ** -decades * rng.normal(size=N))
    try:
        fresh = polygon_all_active(normals, offsets, origin)
    except WulffError:
        with pytest.raises(WulffError):
            polygon_all_active(normals, offsets, origin, first)
        return
    handed = polygon_all_active(normals, offsets, origin, first)
    assert handed.ridges is first.ridges and fresh.ridges is not first.ridges
    assert np.array_equal(handed.ridges.pairs, fresh.ridges.pairs)
    for field in ("vertices", "facet_areas", "volume", "centroid", "support_values"):
        assert np.array_equal(getattr(handed, field), getattr(fresh, field)), field
    # the record of a wulff_shape body, or of a polygon on other normals, is
    # not handed on
    hull = wulff_shape(2, normals, offsets, validate=False, interior_hint=origin)
    turned = polygon_all_active(-normals, offsets, origin, first)
    assert polygon_all_active(normals, offsets, origin, hull).ridges is not hull.ridges
    assert turned.ridges is not first.ridges
    assert turned.volume == pytest.approx(fresh.volume, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), grid_size=st.sampled_from([0, 100, 500]),
       decades=st.floats(2.0, 7.0))
def test_a_chain_of_same_type_polytopes_is_the_wulff_shape(seed, grid_size, decades):
    # three polytopes in a row, each built from the last with the ridge
    # record and the data it keeps: where the Wulff shape at those offsets
    # has the same ridges, its facet areas, volume and centroid agree
    body = _all_active_polytope(seed, grid_size)
    rng = np.random.default_rng((seed, 2))
    hint = np.zeros(3)
    for _ in range(3):
        offsets = body.offsets * np.exp(10.0 ** -decades * rng.normal(size=len(body.offsets)))
        try:
            same = polytope_same_type(body, offsets, hint)
        except WulffError:
            return
        ref = wulff_shape(3, body.normals, offsets, interior_hint=hint)
        assert same.ridges is body.ridges and _ridge_set(ref) == _ridge_set(same)
        assert np.all(np.abs(same.facet_areas - ref.facet_areas)
                      <= 1e-12 * ref.facet_areas.max())
        assert same.volume == pytest.approx(ref.volume, rel=1e-12)
        size = np.max(np.abs(ref.vertices))
        assert np.all(np.abs(same.centroid - ref.centroid) <= 1e-12 * size)
        body = same


def _record_arrays(ridges):
    """Every array a ridge record holds, in its slots or in their tuples."""
    arrays = []
    for value in vars(ridges).values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                arrays.append(a)
    return arrays


def test_a_ridge_record_is_read_only():
    # the bodies of a type share every array its record holds: the ridges,
    # the polygon's cycle, the band and the pattern of its facet systems,
    # and the polytope's fan data and simple type
    square = polygon_all_active(SQUARE_NORMALS, np.ones(4), np.zeros(2))
    cube = wulff_shape(3, CUBE_NORMALS, np.ones(6))
    polytope_same_type(cube, np.arange(1.0, 7.0), np.zeros(3))
    for body, count in ((square, 1 + 8 + 5 + 6), (cube, 4 + 5 + 6)):
        geometry.solve_facet_system(body, np.ones(len(body.normals)), 1.0,
                                    np.ones(len(body.normals)))
        facet_jacobian(body)
        arrays = _record_arrays(body.ridges)
        assert len(arrays) == count
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]


def _ridge_set(body):
    return set(map(tuple, np.sort(body.ridges.pairs, axis=1).tolist()))


def _all_active_polytope(seed, grid_size):
    """A polytope with every facet active: a grid body or a random one cut
    down to its active constraints."""
    rng = np.random.default_rng(seed)
    if grid_size:
        nodes = build_grid(3, grid_size).nodes
        return wulff_shape(3, nodes, np.exp(0.3 * nodes @ rng.normal(size=3)),
                           interior_hint=np.zeros(3))
    body = random_polytope(rng)
    active = body.facet_areas > 0
    return wulff_shape(3, body.normals[active], body.offsets[active],
                       interior_hint=np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), grid_size=st.sampled_from([0, 100, 500]),
       decades=st.floats(1.0, 7.0))
def test_polytope_same_type_is_the_wulff_shape_or_refuses(seed, grid_size, decades):
    # relative perturbations of 1e-7 to 1e-1 of every offset
    body = _all_active_polytope(seed, grid_size)
    rng = np.random.default_rng((seed, 1))
    offsets = body.offsets * np.exp(10.0 ** -decades * rng.normal(size=len(body.offsets)))
    hint = np.zeros(3)
    try:
        same = polytope_same_type(body, offsets, hint)
    except WulffError:
        return
    ref = wulff_shape(3, body.normals, offsets, interior_hint=hint)
    assert _ridge_set(same) == _ridge_set(ref)
    assert np.all(same.facet_areas > 0)
    assert np.all(np.abs(same.facet_areas - ref.facet_areas)
                  <= 1e-12 * ref.facet_areas.max())
    assert same.volume == pytest.approx(ref.volume, rel=1e-12)
    size = np.max(np.abs(ref.vertices))
    assert np.all(np.abs(same.centroid - ref.centroid) <= 1e-12 * size)
    assert np.array_equal(same.support_values, offsets)
    same._check_invariants()
    assert np.all(np.abs(same.support(body.normals) - offsets) <= 1e-12 * size)


def test_polytope_same_type_refuses_an_edge_flip():
    # pulling in the third plane k at one end of the shortest ridge (i, j)
    # moves that end along the ridge; past the other end the ridge is gone
    # and facets k and l, the third at the other end, meet instead
    body = _all_active_polytope(3, 0)
    pairs, ends = body.ridges.pairs, body.ridges.ends
    lengths = np.linalg.norm(body.vertices[ends[:, 0]] - body.vertices[ends[:, 1]], axis=1)
    r = np.argmin(lengths)
    (i, j), (a, b) = pairs[r], ends[r]
    facets_at = [set(pairs[np.any(ends == v, axis=1)].ravel()) for v in (a, b)]
    k, l = (facets_at[0] - {i, j}).pop(), (facets_at[1] - {i, j}).pop()
    u = body.normals
    d = np.cross(u[i], u[j])
    # pulling plane k in by delta moves vertex a by -delta d / <u_k, d>
    delta_star = -(body.vertices[b] - body.vertices[a]) @ d / (d @ d) * (u[k] @ d)
    assert delta_star > 0
    for factor, flips in ((0.5, False), (1.5, True)):
        offsets = body.offsets.copy()
        offsets[k] -= factor * delta_star
        ref = wulff_shape(3, u, offsets, interior_hint=np.zeros(3))
        assert np.all(ref.facet_areas > 0)
        if not flips:
            assert _ridge_set(polytope_same_type(body, offsets, np.zeros(3))) == _ridge_set(ref)
            continue
        assert _ridge_set(ref) == _ridge_set(body) - {(min(i, j), max(i, j))} | {(min(k, l), max(k, l))}
        with pytest.raises(WulffError):
            polytope_same_type(body, offsets, np.zeros(3))


def test_polytope_same_type_refuses_a_vertex_of_degree_four():
    signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    octahedron = wulff_shape(3, signs / np.sqrt(3), np.ones(8))
    assert np.all(np.bincount(octahedron.ridges.ends.ravel()) == 4)
    for offsets in (np.ones(8), np.linspace(1.0, 1.1, 8)):
        with pytest.raises(WulffError):
            polytope_same_type(octahedron, offsets, np.zeros(3))


def test_polytope_same_type_errors():
    cube = wulff_shape(3, CUBE_NORMALS, np.ones(6))
    # the cube's vertices are simple, so its type carries over
    moved = polytope_same_type(cube, np.arange(1.0, 7.0), np.zeros(3))
    assert moved.volume == pytest.approx(3 * 7 * 11, rel=1e-12)
    assert np.allclose(moved.centroid, [-0.5, -0.5, -0.5], rtol=0, atol=1e-12)
    bad = [(np.array([1.0, 1, 1, np.nan, 1, 1]), np.zeros(3)),  # non-finite
           (np.ones(6), np.array([1.5, 0.0, 0.0]))]  # hint outside
    for offsets, hint in bad:
        with pytest.raises(WulffError):
            polytope_same_type(cube, offsets, hint)
    # a cube with one more halfspace, which misses its corner (1, 1, 1)
    loose = wulff_shape(3, np.vstack([CUBE_NORMALS, [[1, 1, 1]] / np.sqrt(3)]),
                        np.append(np.ones(6), 2.0))
    assert loose.facet_areas[6] == 0
    with pytest.raises(WulffError):
        polytope_same_type(loose, loose.offsets, np.zeros(3))
    with pytest.raises(GeometryError):
        polytope_same_type(wulff_shape(2, SQUARE_NORMALS, np.ones(4)),
                           np.ones(4), np.zeros(2))


def test_bodies_of_one_type_share_its_ridge_record(monkeypatch):
    # scaled, translated and polytope_same_type bodies hold their input's
    # record, so the type and pattern one of them computes serve them all;
    # embedded builds a record of its own, re-indexed
    body = _all_active_polytope(0, 100)
    kin = [body.scaled(2.0), body.translated([0.1, -0.2, 0.05]),
           polytope_same_type(body, 1.01 * body.offsets, np.zeros(3))]
    assert all(k.ridges is body.ridges for k in kin)
    assert body.ridges.pattern is None and kin[2].ridges.simple_type is not None
    jacobians = [facet_jacobian(k).toarray() for k in kin]
    pattern, simple_type = body.ridges.pattern, body.ridges.simple_type

    def refuse(*args):
        raise AssertionError("a ridge pattern was computed twice")

    monkeypatch.setattr(geometry, "_ridge_angles", refuse)
    reference = facet_jacobian(body).toarray()
    size = np.abs(reference).max()
    # dS/dh scales as lam^(n-2) and is unchanged by a translation
    assert np.abs(jacobians[0] - 2.0 * reference).max() <= 1e-12 * size
    assert np.abs(jacobians[1] - reference).max() <= 1e-12 * size
    again = polytope_same_type(kin[0], 2.02 * body.offsets, np.zeros(3))
    assert again.ridges is body.ridges
    assert body.ridges.pattern is pattern and body.ridges.simple_type is simple_type
    m = len(body.normals)
    wide = body.embedded(np.vstack([-body.normals[:2], body.normals]), np.arange(2, m + 2))
    assert wide.ridges is not body.ridges and wide.ridges.pattern is None
    assert np.array_equal(wide.ridges.pairs, body.ridges.pairs + 2)
    assert wide.ridges.ends is body.ridges.ends


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


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       s=st.sampled_from([1e-30, 1e-15, 1e15, 1e19]), p=st.sampled_from([0.5, 0.0, -1.0]))
def test_bodies_scale_with_their_offsets(dim, seed, s, p):
    # every tolerance is relative to the body's size, so each builder at
    # s h, with hint s x, gives s times its body at h, at any size
    rng = np.random.default_rng(seed)
    body = (random_polygon if dim == 2 else random_polytope)(rng)
    active = body.facet_areas > 0
    normals, offsets, x = body.normals[active], body.offsets[active], body.centroid
    unit = wulff_shape(dim, normals, offsets)
    if dim == 2:
        def same_type(h, hint):
            return polygon_all_active(normals, h, hint)
    else:
        def same_type(h, hint):
            return polytope_same_type(unit, h, hint)
    try:
        ref = same_type(offsets, x)
    except WulffError:
        assume(False)  # a tie too close for the same-type check
    pairs = [(unit, wulff_shape(dim, normals, s * offsets)),
             (ref, same_type(s * offsets, s * x))]
    size = np.max(np.abs(unit.vertices))
    lp = lp_surface_area_measure(unit, p)
    for base, scaled in pairs:
        assert len(scaled.vertices) == len(base.vertices)
        gaps = np.linalg.norm(scaled.vertices[:, None] / s - base.vertices[None], axis=2)
        assert np.max(np.min(gaps, axis=1)) <= 1e-12 * size
        assert scaled.volume == pytest.approx(s ** dim * base.volume, rel=1e-12)
        assert np.all(np.abs(scaled.facet_areas / s ** (dim - 1) - base.facet_areas)
                      <= 1e-12 * base.facet_areas.max())
        assert np.all(np.abs(scaled.centroid / s - base.centroid) <= 1e-12 * size)
        assert np.all(np.abs(lp_surface_area_measure(scaled, p) / s ** (dim - p) - lp)
                      <= 1e-12 * lp.max())


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


def _square_pyramid():
    # the apex meets four facets
    normals = np.array([[0, 0, -1], [1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]],
                       dtype=float)
    return wulff_shape(3, normals / np.linalg.norm(normals, axis=1)[:, None], np.ones(5))


@pytest.fixture(scope="module")
def off_meshes(grid3):
    """(name, body, vertices, triangles) parsed from the OFF text of 200
    random polytopes, the cube, the octahedron, a square pyramid, the
    solved N = 500 dipole and a solve on a grid closed under the cube group."""
    rng = np.random.default_rng(0)
    bodies = [("random%d" % k, random_polytope(rng, k=int(rng.integers(6, 80))))
              for k in range(200)]
    signs = np.array([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)])
    bodies += [("cube", wulff_shape(3, CUBE_NORMALS, np.ones(6))),
               ("octahedron", wulff_shape(3, signs / np.sqrt(3), np.ones(8))),
               ("pyramid", _square_pyramid())]
    cube_grid = build_grid(3, 100, symmetry=cube_group())
    for name, grid, density in [
            ("dipole", grid3, lambda U: 1 + 0.3 * U[:, 0]),
            ("cube-group", cube_grid, lambda U: 1 + 0.5 * np.sum(U ** 4, axis=1))]:
        body, report = solve(density_measure(density, grid), 0.5)
        assert report.converged
        bodies.append((name, body))
    meshes = []
    for name, body in bodies:
        lines = body_to_off(body).splitlines()
        nv, nf, _ = map(int, lines[1].split())
        vertices = np.array([line.split() for line in lines[2:2 + nv]], dtype=float)
        faces = np.array([line.split() for line in lines[2 + nv:]], dtype=int)
        assert lines[0] == "OFF" and len(faces) == nf and np.all(faces[:, 0] == 3)
        meshes.append((name, body, vertices, faces[:, 1:]))
    return meshes


def test_off_mesh_is_closed_and_consistently_oriented(off_meshes):
    # every directed edge appears once, and so does its reverse
    for name, body, vertices, tri in off_meshes:
        a, b = np.concatenate([tri, np.roll(tri, -1, axis=1)]).reshape(2, -1)
        edges, reverse = a * len(vertices) + b, b * len(vertices) + a
        assert len(np.unique(edges)) == len(edges), name
        assert np.all(np.isin(reverse, edges)), name


def test_off_mesh_has_2v_minus_4_triangles_and_the_body_volume(off_meshes):
    for name, body, vertices, tri in off_meshes:
        # the vertex lines round-trip the body's vertices bit for bit
        assert np.array_equal(vertices, body.vertices), name
        assert len(tri) == 2 * len(vertices) - 4, name
        x, y, z = vertices[tri.T]
        volume = np.einsum("ij,ij->i", x, np.cross(y, z)).sum() / 6.0
        assert volume == pytest.approx(body.volume, rel=1e-11), name


def test_off_triangles_lie_in_their_facets_facing_out(off_meshes):
    for name, body, vertices, tri in off_meshes:
        size = np.linalg.norm(vertices - body.centroid, axis=1).max()
        active = np.flatnonzero(body.facet_areas > 0)
        normals, h = body.normals[active], body.support_values[active]
        x, y, z = vertices[tri.T]
        # a triangle's centroid is inside one facet, whose plane it touches
        facet = np.concatenate([
            np.argmin(h - c @ normals.T, axis=1)
            for c in np.array_split((x + y + z) / 3.0, len(tri) // 500 + 1)])
        for v in (x, y, z):
            gap = np.abs(np.einsum("ij,ij->i", v, normals[facet]) - h[facet])
            assert gap.max() <= 1e-12 * size, name
        assert np.all(np.einsum("ij,ij->i", np.cross(y - x, z - x),
                                normals[facet]) > 0), name


def test_off_export_needs_recorded_ridges():
    C = wulff_shape(3, CUBE_NORMALS, np.ones(6))
    # every body carries its ridges: one without a record cannot be built
    with pytest.raises(TypeError):
        Body(3, C.normals, C.offsets, C.vertices, C.facet_areas, C.volume,
             C.centroid, C.support_values)
    with pytest.raises(GeometryError):
        body_to_off(wulff_shape(2, SQUARE_NORMALS, np.ones(4)))


def test_off_export_builds_no_hull(monkeypatch):
    bodies = [wulff_shape(3, CUBE_NORMALS, np.ones(6)), _square_pyramid(),
              random_polytope(np.random.default_rng(5))]

    def refuse(*args, **kwargs):
        raise AssertionError("body_to_off built a hull")

    monkeypatch.setattr(geometry, "ConvexHull", refuse)
    for body in bodies:
        header = body_to_off(body).splitlines()[1]
        assert header == "%d %d 0" % (len(body.vertices), 2 * len(body.vertices) - 4)


@pytest.mark.parametrize("scale", [1.0, 1e-30])
@pytest.mark.parametrize("message, doctor", [
    pytest.param("body volume must be positive", lambda B: {"volume": 0.0},
                 id="volume"),
    pytest.param("support values exceed offsets",
                 lambda B: {"offsets": B.offsets * [1 - 1e-6, 1, 1, 1]}, id="support"),
    pytest.param("surface area measure barycenter is not zero",
                 lambda B: {"facet_areas": B.facet_areas * [1.01, 1, 1, 1]}, id="closure"),
    pytest.param("volume identity", lambda B: {"volume": B.volume * (1 + 1e-6)},
                 id="volume-identity"),
    # the reflection of the vertex (-1, 1) escapes once the centroid's
    # first coordinate passes 1/3
    pytest.param("centroid reflection point escapes the body",
                 lambda B: {"centroid": B.centroid + [(1 / 3 + 1e-6) * B.offsets[0], 0.0]},
                 id="reflection"),
])
def test_body_invariants_hold_at_every_size(scale, message, doctor):
    # the unit square, or its copy scaled by 1e-30, with one field doctored
    square = wulff_shape(2, SQUARE_NORMALS, np.ones(4)).scaled(scale)
    Body(**vars(square))
    with pytest.raises(GeometryError, match=message):
        Body(**{**vars(square), **doctor(square)})


def test_scaled_and_translated_consistency():
    rng = np.random.default_rng(23)
    body = random_polygon(rng)
    s = body.scaled(2.0)
    assert s.volume == pytest.approx(4.0 * body.volume, rel=1e-12)
    assert np.allclose(s.facet_areas, 2.0 * body.facet_areas)
    s._check_invariants()
    t = body.translated(np.array([0.1, 0.2]))
    t._check_invariants()
