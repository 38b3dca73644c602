import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.stats import special_ortho_group

from conftest import cube_group, dihedral_group
from lpmink.measures import (HypothesisError, MeasureError, SphericalMeasure,
                             _distinct_atoms, _greedy_net, _linear_span,
                             _nearest_center, density_measure,
                             positive_hull_check, smooth_discrete,
                             subspace_concentration_check,
                             symmetrize_hemisphere, truncate_density)
from lpmink.sphere import DirectionGrid, build_grid, sphere_area


def axis_measure_2d(masses_by_axis):
    nodes = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
    grid = DirectionGrid(2, nodes, np.full(4, np.pi / 2))
    return SphericalMeasure(grid, np.asarray(masses_by_axis, dtype=float))


def test_density_measure_uniform_total():
    g = build_grid(2, 360)
    mu = density_measure(lambda U: np.ones(len(U)), g)
    assert mu.total_mass == pytest.approx(2 * np.pi, abs=1e-10)
    assert mu.density_bounds == (1.0, 1.0)


def test_density_measure_odd_part_integrates_out():
    g = build_grid(2, 360)
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], g)
    assert mu.total_mass == pytest.approx(2 * np.pi, rel=1e-3)


def test_density_measure_bump_against_fine_quadrature():
    g = build_grid(2, 256)

    def f(U):
        U = np.atleast_2d(U)
        ang = np.arccos(np.clip(U[:, 0], -1, 1))
        return np.exp(-((ang / 0.3) ** 2))

    mu = density_measure(f, g)
    theta = np.linspace(0, 2 * np.pi, 200001)[:-1]
    U_fine = np.column_stack([np.cos(theta), np.sin(theta)])
    oracle = f(U_fine).sum() * (2 * np.pi / len(theta))
    assert mu.total_mass == pytest.approx(oracle, rel=0.005)


def test_density_measure_rejects_zero_and_negative():
    g = build_grid(2, 64)
    with pytest.raises(MeasureError):
        density_measure(lambda U: np.zeros(len(U)), g)
    with pytest.raises(MeasureError):
        density_measure(lambda U: -np.ones(len(U)), g)
    with pytest.raises(MeasureError):
        density_measure(lambda U: np.full(len(U), np.nan), g)


def test_density_measure_takes_the_node_array():
    g = build_grid(2, 64)
    # a density written for one node sees the whole (N, n) array and is
    # rejected, not retried node by node
    with pytest.raises(MeasureError, match=r"\(N, n\) node array"):
        density_measure(lambda u: 1.0 + u[0], g)

    def failing(U):
        raise ZeroDivisionError

    with pytest.raises(ZeroDivisionError):
        density_measure(failing, g)


def test_truncate_density_three_cases():
    f5 = truncate_density(lambda u: 5.0, 3)
    assert f5(np.array([1.0, 0.0])) == 3.0
    f0 = truncate_density(lambda u: 0.0, 3)
    assert f0(np.array([1.0, 0.0])) == pytest.approx(1 / 3)
    f1 = truncate_density(lambda u: 1.0, 7)
    assert f1(np.array([1.0, 0.0])) == 1.0
    with pytest.raises(MeasureError):
        truncate_density(lambda u: 1.0, 1)


def test_truncate_density_pointwise_on_grid():
    g = build_grid(2, 128)
    raw = lambda U: 10.0 * np.abs(np.atleast_2d(U)[:, 0])
    m = 4
    fm = truncate_density(raw, m)
    vals = fm(g.nodes)
    assert np.all(vals >= 1 / m) and np.all(vals <= m)
    mid = (raw(g.nodes) > 1 / m) & (raw(g.nodes) < m)
    assert np.allclose(vals[mid], raw(g.nodes)[mid])


def test_smooth_single_atom_floor_and_total():
    g = build_grid(2, 360)
    mu = smooth_discrete(np.array([[1.0, 0.0]]), np.array([1.0]), g, m=8)
    assert np.all(mu.masses > 0)
    # total = atom mass + (sphere area)/(#cells)^2 exactly
    added = mu.total_mass - 1.0
    cells = round(np.sqrt(sphere_area(2) / added))
    assert mu.total_mass == pytest.approx(1.0 + sphere_area(2) / cells ** 2,
                                          abs=1e-12)


def test_smooth_antipodal_pair_even_output():
    g = build_grid(2, 360)
    group = [np.eye(2), -np.eye(2)]
    mu = smooth_discrete(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                         np.array([1.0, 1.0]), g, group=group, m=8)
    flip = np.array([g.nearest_node(-u) for u in g.nodes])
    assert np.max(np.abs(mu.masses[flip] - mu.masses)) <= 1e-12


def test_smooth_weak_convergence_rate():
    g = build_grid(2, 360)
    rng = np.random.default_rng(101)
    dirs = rng.normal(size=(3, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    masses = np.array([1.0, 0.5, 0.8])
    exact = np.sum(masses * dirs[:, 0] ** 2)
    # measured err*m <= 0.81 over the refinement study; frozen with margin
    C = 1.5
    for m in (8, 16, 32):
        mu_m = smooth_discrete(dirs, masses, g, m=m)
        approx = np.sum(mu_m.masses * g.nodes[:, 0] ** 2)
        assert abs(approx - exact) <= C / m


def test_smooth_rejects_bad_input():
    g = build_grid(2, 64)
    with pytest.raises(MeasureError):
        smooth_discrete(np.array([[1.0, 0.0]]), np.array([0.0]), g, m=8)
    with pytest.raises(MeasureError):
        smooth_discrete(np.array([[2.0, 0.0]]), np.array([1.0]), g, m=8)
    # C7 is a valid group but the 64-node grid is not closed under it
    th = 2 * np.pi / 7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    group = [np.linalg.matrix_power(rot, k) for k in range(7)]
    with pytest.raises(MeasureError):
        smooth_discrete(np.array([[1.0, 0.0]]), np.array([1.0]), g,
                        group=group, m=8)


@pytest.mark.parametrize("group", [dihedral_group(1), dihedral_group(4)[::2],
                                   dihedral_group(4)], ids=["C2", "C4", "D4"])
@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("m", [4, 8, 32])
def test_smooth_with_a_group_is_exactly_invariant(group, N, m):
    # a node equidistant from two centres in exact arithmetic used to take
    # its cell from rounding, and its mirror image the other cell
    g = build_grid(2, N, symmetry=group)
    rng = np.random.default_rng(N + m)
    dirs = rng.normal(size=(3, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    orbit = np.concatenate([dirs @ np.asarray(A).T for A in group])
    masses = np.tile(rng.uniform(0.5, 1.5, 3), len(group))
    mu = smooth_discrete(orbit, masses, g, group=group, m=m)
    assert np.all(mu.masses[mu.permutations] == mu.masses)


def test_smooth_memory_is_linear_in_the_grid():
    # one N x N float matrix at N = 4000 is 128 MB
    g = build_grid(3, 4000)
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(40, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        smooth_discrete(dirs, rng.uniform(0.5, 1.5, 40), g, m=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def _dense_net_and_cells(nodes, m):
    """The greedy net and the cells from the full N x N angle matrix."""
    # a product of one array with its own transpose goes to the symmetric
    # kernel, which rounds differently from the one smooth_discrete uses
    dist = np.arccos(np.clip(nodes.copy() @ nodes.T, -1.0, 1.0))
    centers = [0]
    to_net = dist[0].copy()
    while to_net.max() > 1.0 / m and len(centers) < len(nodes):
        nxt = int(np.argmax(to_net))
        centers.append(nxt)
        to_net = np.minimum(to_net, dist[nxt])
    centers = np.sort(centers)
    return centers, np.argmin(dist[centers], axis=0)


def _net_and_cells(nodes, m):
    centers = _greedy_net(nodes[None], nodes, m)
    return centers, _nearest_center(nodes[centers][None], nodes)


@pytest.mark.parametrize("n,N,m", [(2, 256, 32), (3, 500, 16), (2, 360, 8),
                                   (2, 360, 32), (2, 1000, 32), (3, 500, 4)])
def test_smooth_cells_match_the_dense_oracle(n, N, m):
    # the benchmark's grids, then nets and cells that turn on distances
    # equal in exact arithmetic or on cosines that arccos rounds to one
    # distance; on the 256-node circle the odd nodes tie between two even
    # centres, and the last bit decides
    nodes = build_grid(n, N).nodes
    centers, cells = _net_and_cells(nodes, m)
    expected_centers, expected_cells = _dense_net_and_cells(nodes, m)
    assert np.array_equal(centers, expected_centers)
    assert np.array_equal(cells, expected_cells)


@pytest.mark.parametrize("n,N", [(2, 64), (2, 360), (3, 100), (3, 500)])
@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_smooth_net_and_cells_properties(n, N, m):
    nodes = build_grid(n, N).nodes
    centers, cells = _net_and_cells(nodes, m)
    to_centers = np.arccos(np.clip(nodes @ nodes[centers].T, -1.0, 1.0))
    apart = to_centers[centers]
    np.fill_diagonal(apart, np.inf)
    assert apart.min() > 1.0 / m
    own = to_centers[np.arange(N), cells]
    assert own.max() <= 1.0 / m
    assert np.all(own <= to_centers.min(axis=1) + 1e-12)


def test_symmetrize_single_atom_simplex():
    g = build_grid(2, 360)
    masses = np.zeros(len(g))
    masses[0] = 1.0
    mu = SphericalMeasure(g, masses)
    mu0, simplex, A, cone = symmetrize_hemisphere(mu)
    assert simplex.shape == (3, 2)
    gram = simplex @ simplex.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-12)
    assert np.allclose(gram[~np.eye(3, dtype=bool)], -0.5, atol=1e-12)
    assert np.min(np.linalg.norm(simplex - np.array([1.0, 0.0]), axis=1)) < 1e-12
    sub, support = mu0.on_support()
    assert support.tolist() == [0, 120, 240]
    assert np.array_equal(sub.grid.nodes, g.nodes[support])
    assert sub.masses == pytest.approx([1.0, 1.0, 1.0])
    assert mu0.total_mass == pytest.approx(3.0)


def test_symmetrize_rotation_invariance():
    g = build_grid(2, 360)
    masses = np.zeros(len(g))
    masses[0] = 2.0
    masses[10] = 1.0
    mu0, simplex, A, cone = symmetrize_hemisphere(SphericalMeasure(g, masses))
    rotated = np.zeros(len(g))
    images = g.nodes @ A.T
    idx = [g.nearest_node(v) for v in images]
    np.add.at(rotated, idx, mu0.masses)
    assert np.max(np.abs(rotated - mu0.masses)) <= 1e-10 * mu0.masses.max()


def test_symmetrize_quarter_arc_hemispheres_positive():
    A_ref = np.array([[-1.0, 0.0], [0.0, 1.0]])
    g = build_grid(2, 360, symmetry=[np.eye(2), A_ref])

    def f(U):
        ang = np.arctan2(U[:, 1], U[:, 0])
        return np.where(np.abs(ang) <= np.pi / 4 + 1e-12, 1.0, 0.0)

    mu = density_measure(f, g)
    mu0, simplex, A, cone = symmetrize_hemisphere(mu)
    assert mu0.total_mass == pytest.approx(2 * mu.total_mass)
    for k in range(360):
        t = 2 * np.pi * k / 360 + 0.0005
        w = np.array([np.cos(t), np.sin(t)])
        assert mu0.masses[(g.nodes @ w) > 1e-12].sum() > 0


def test_symmetrize_rejects_a_grid_not_closed_under_the_rotation():
    # the atom's images under the 120 degree rotation are nodes, but the
    # node at 50 degrees has no image: mu0 cannot carry the group
    angles = np.radians([0.0, 50.0, 120.0, 240.0])
    g = DirectionGrid(2, np.column_stack([np.cos(angles), np.sin(angles)]),
                      np.full(4, np.pi / 2))
    with pytest.raises(MeasureError, match="not closed under the group"):
        symmetrize_hemisphere(SphericalMeasure(g, [1.0, 0.0, 0.0, 0.0]))


def test_symmetrize_rejects_full_positive_hull():
    g = build_grid(2, 360)
    mu = density_measure(lambda U: np.ones(len(U)), g)
    with pytest.raises(HypothesisError):
        symmetrize_hemisphere(mu)


def test_positive_hull_antipodal_fails():
    report = positive_hull_check(axis_measure_2d([0.5, 0.5, 0.0, 0.0]))
    assert not report.passes
    assert report.pos_equals_L
    # a Python bool, which the check's report.json writes as is
    assert report.antipodal_pair is True
    assert "antipodal" in report.detail


def test_positive_hull_singleton_passes():
    report = positive_hull_check(axis_measure_2d([1.0, 0.0, 0.0, 0.0]))
    assert report.passes
    assert report.L_dim == 1
    assert not report.pos_equals_L


def test_positive_hull_spanning_passes():
    nodes = np.array([[1, 0, 0], [0, 1, 0],
                      [-1 / np.sqrt(2), -1 / np.sqrt(2), 0], [0, 0, 1]],
                     dtype=float)
    grid = DirectionGrid(3, nodes, np.full(4, sphere_area(3) / 4))
    mu = SphericalMeasure(grid, np.ones(4))
    report = positive_hull_check(mu)
    assert report.passes
    assert report.L_dim == 3


def test_subspace_concentration_cube_equality():
    nodes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                      [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float)
    grid = DirectionGrid(3, nodes, np.full(6, sphere_area(3) / 6))
    mu = SphericalMeasure(grid, np.full(6, 8.0 / 6.0))
    report = subspace_concentration_check(mu)
    assert report.satisfied
    eq_lines = [w for w in report.witnesses if w.dim == 1]
    assert len(eq_lines) == 3
    # the frame about an axis starts on another axis, so the atoms there
    # sit at the angle 0 and their plane intervals wrap past 0 and pi
    assert [w.atom_indices for w in report.witnesses] == [
        [0, 1], [2, 3], [4, 5], [0, 1, 2, 3], [0, 1, 4, 5], [2, 3, 4, 5]]
    assert all(w.equality and w.complement_exists for w in report.witnesses)
    assert report.worst_ratio == pytest.approx(1.0, abs=1e-9)


def test_subspace_concentration_antipodal_violated():
    report = subspace_concentration_check(axis_measure_2d([0.5, 0.5, 0.0, 0.0]))
    assert not report.satisfied
    assert report.worst_ratio == pytest.approx(2.0)


def test_subspace_concentration_equality_within_tol():
    # the e1 line holds 4e-10 less than its limit 1/2: still an equality
    report = subspace_concentration_check(
        axis_measure_2d([0.25, 0.25 - 4e-10, 0.25, 0.25 + 4e-10]))
    assert report.satisfied
    assert [(w.atom_indices, w.equality, w.complement_exists)
            for w in report.witnesses] == [([0, 1], True, True), ([2, 3], True, True)]


def test_subspace_concentration_generic_atoms_strict():
    rng = np.random.default_rng(103)
    nodes = rng.normal(size=(10, 3))
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    grid = DirectionGrid(3, nodes, np.full(10, sphere_area(3) / 10))
    mu = SphericalMeasure(grid, rng.uniform(0.5, 1.5, 10))
    report = subspace_concentration_check(mu)
    assert report.satisfied
    assert report.worst_ratio < 1.0
    assert not report.witnesses


def test_subspace_concentration_keeps_planes_with_close_normals():
    # the plane through u1, u2 has normal nA, 3e-5 rad from the equator's e3;
    # the two planes share only the line through e2
    a = 3e-5
    nA = np.array([np.sin(a), 0.0, np.cos(a)])
    e2, e3 = np.eye(3)[1], np.eye(3)[2]
    equator = [np.array([np.cos(t), np.sin(t), 0.0]) for t in (0.3, 1.9, 3.5, 5.0)]
    nodes = np.array([np.cross(nA, e2), e2] + equator + [e3])
    grid = DirectionGrid(3, nodes, np.full(7, sphere_area(3) / 7))
    masses = np.array([0.02, 0.02] + [0.225] * 4 + [0.08])
    report = subspace_concentration_check(SphericalMeasure(grid, masses))
    assert not report.satisfied
    assert len(report.witnesses) == 1
    w = report.witnesses[0]
    assert (w.dim, w.atom_indices, w.equality) == (2, [1, 2, 3, 4, 5], False)
    assert w.ratio == pytest.approx(0.92 / 1.02, rel=1e-12)
    assert report.worst_ratio == pytest.approx(1.5 * 0.92 / 1.02, rel=1e-12)


def _brute_force_subspace_check(measure, tol=1e-9):
    """O(k^3) reference: lines through each atom and planes through each
    pair, membership by distance at most tol, deduplicated by atom set."""
    dirs, masses = _distinct_atoms(measure)
    n = measure.dim
    candidates, seen = [], set()

    def add(dim_L, span_rows, on):
        key = (dim_L,) + tuple(np.flatnonzero(on))
        if key not in seen:
            seen.add(key)
            candidates.append((dim_L, span_rows, on))

    for u in dirs:
        add(1, u[None, :], np.linalg.norm(dirs - np.outer(dirs @ u, u), axis=1) <= tol)
    if n == 3:
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                w = np.cross(dirs[i], dirs[j])
                if np.linalg.norm(w) > tol:
                    add(2, dirs[[i, j]], np.abs(dirs @ w) / np.linalg.norm(w) <= tol)

    satisfied, worst, witnesses = True, 0.0, []
    for dim_L, span_rows, on in candidates:
        ratio = masses[on].sum() / masses.sum()
        limit = dim_L / n
        equality = abs(ratio - limit) <= tol
        complement = False
        if equality:
            rest = dirs[~on]
            complement = len(rest) == 0
            if not complement:
                L, R = _linear_span(span_rows), _linear_span(rest)
                complement = (R.shape[1] <= n - dim_L and np.linalg.matrix_rank(
                    np.hstack([L, R]), tol=1e-9) == L.shape[1] + R.shape[1])
        if ratio > limit + tol or equality:
            satisfied = satisfied and not (ratio > limit + tol or not complement)
            witnesses.append((dim_L, ratio, equality, complement,
                              np.flatnonzero(on).tolist()))
        worst = max(worst, ratio / limit)
    return satisfied, worst, witnesses


def _random_unit(rng, n):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


def _planted_atoms(rng, n, parts):
    """Directions with planted structure, coincident ones dropped."""
    rot = special_ortho_group.rvs(n, random_state=rng) if n == 3 else np.eye(2)
    dirs = []
    for part in parts:
        if part == "random":
            dirs += [_random_unit(rng, n) for _ in range(rng.integers(1, 4))]
        elif part == "circle":  # atoms on one great circle
            if n == 3:
                basis = special_ortho_group.rvs(3, random_state=rng)[:2]
            else:
                basis = np.eye(2)
            t = rng.uniform(0.0, 2.0 * np.pi, rng.integers(3, 6))
            dirs += list(np.column_stack([np.cos(t), np.sin(t)]) @ basis)
        elif part == "near_plane":  # within 1.5 SUBSPACE_TOL of a great circle
            frame = special_ortho_group.rvs(n, random_state=rng)
            t = rng.uniform(0.0, 2.0 * np.pi, rng.integers(3, 7))
            ring = np.column_stack([np.cos(t), np.sin(t)]) @ frame[:2]
            if n == 3:
                ring += np.outer(rng.uniform(-1.5e-9, 1.5e-9, len(t)), frame[2])
            dirs += list(ring)
        elif part == "antipodal":
            u = dirs[rng.integers(len(dirs))] if dirs else _random_unit(rng, n)
            dirs += [u, -u]
        elif part == "axes":  # coordinate axes, shared by other parts
            dirs += list(np.eye(n)[rng.permutation(n)[:2]] * rng.choice([-1, 1]))
        elif part == "octahedron":
            dirs += list(np.vstack([np.eye(n), -np.eye(n)]) @ rot)
        elif part == "cube":
            corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).reshape(n, -1).T
            dirs += list(corners / np.sqrt(n) @ rot)
    kept = []
    for u in dirs:
        if all(np.linalg.norm(u - v) > 1e-6 for v in kept):
            kept.append(u / np.linalg.norm(u))
    return np.array(kept[:12])


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       parts=st.lists(st.sampled_from(["random", "circle", "near_plane", "antipodal",
                                       "axes", "octahedron", "cube"]),
                      min_size=1, max_size=4),
       weights=st.sampled_from(["equal", "random", "heavy"]),
       twin=st.booleans())
def test_subspace_concentration_matches_brute_force(n, seed, parts, weights, twin):
    rng = np.random.default_rng(seed)
    dirs = _planted_atoms(rng, n, parts)
    k = len(dirs)
    masses = {"equal": np.ones(k), "random": rng.uniform(0.5, 1.5, k),
              "heavy": np.append(k, np.ones(k - 1))}[weights]
    if twin:  # a second node 1e-12 from the first, merged into one atom
        twin_dir = dirs[0] + 1e-12 * _random_unit(rng, n)
        dirs = np.vstack([dirs, twin_dir / np.linalg.norm(twin_dir)])
        masses = np.append(masses, 0.5)
    grid = DirectionGrid(n, dirs, np.full(len(dirs), sphere_area(n) / len(dirs)))
    mu = SphericalMeasure(grid, masses)
    report = subspace_concentration_check(mu)
    satisfied, worst, witnesses = _brute_force_subspace_check(mu)
    assert report.satisfied == satisfied
    assert report.worst_ratio == pytest.approx(worst, rel=1e-12)
    assert [(w.dim, w.atom_indices, w.equality, w.complement_exists)
            for w in report.witnesses] == [(d, a, e, c) for d, _, e, c, a in witnesses]
    assert [w.ratio for w in report.witnesses] == pytest.approx(
        [r for _, r, _, _, _ in witnesses], rel=1e-12)


def test_subspace_check_chained_plane_matches_brute_force():
    # atoms 1 to 4 sit within a few SUBSPACE_TOL of the plane x_2 = 0 through
    # e3, at azimuths 0, 0.9e-9, 2.4e-9 and 3.3e-9 rad: each one is within
    # SUBSPACE_TOL of its angular neighbour, but no plane through e3 holds
    # atoms 1 and 4 both
    b, g, d = 0.9e-9, 2.4e-9, 3.3e-9
    dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
                     [0.6 * np.cos(b), 0.6 * np.sin(b), 0.8],
                     [0.6 * np.cos(g), 0.6 * np.sin(g), -0.8],
                     [np.cos(d), np.sin(d), 0.0], [0.0, 1.0, 0.3],
                     [0.2, -1.0, -0.5]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    grid = DirectionGrid(3, dirs, np.full(7, sphere_area(3) / 7))
    mu = SphericalMeasure(grid, [1.0, 1.0, 1.0, 0.1, 1.0, 0.7, 0.7])
    # the plane through e3 nearest to both bisects their azimuths
    w = np.array([-np.sin(d / 2), np.cos(d / 2), 0.0])
    assert np.min(np.abs(dirs[[1, 4]] @ w)) > 1e-9
    report = subspace_concentration_check(mu)
    satisfied, worst, _ = _brute_force_subspace_check(mu)
    # chaining the atoms would give the plane witness [0..4] at ratio 0.745;
    # the oracle is satisfied, with worst ratio 0.845
    assert satisfied and worst == pytest.approx(1.5 * 3.1 / 5.5, rel=1e-12)
    assert report.satisfied == satisfied
    assert report.worst_ratio == pytest.approx(worst, rel=1e-12)


def test_subspace_check_counts_an_atom_within_tol_of_a_grid_plane():
    # on the 2000-node grid the plane through nodes 414 and 1780 holds
    # node 1811 at distance 9.3e-10; the next node is 2.0e-3 away
    grid = build_grid(3, 2000)
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0], grid)
    w = np.cross(grid.nodes[414], grid.nodes[1780])
    on = np.abs(grid.nodes @ w) / np.linalg.norm(w) <= 1e-9
    assert np.flatnonzero(on).tolist() == [414, 1780, 1811]
    ratio = mu.masses[on].sum() / mu.total_mass
    report = subspace_concentration_check(mu)
    # the checker sums the plane's masses in another order
    assert report.worst_ratio >= ratio / (2 / 3) * (1 - 1e-12)


def _dense_positive_hull_lp(dirs):
    """Reference LP: max delta with lambda_j >= delta as k dense rows."""
    k, n = dirs.shape
    c = np.zeros(k + 1)
    c[-1] = -1.0
    A_eq = np.vstack([np.hstack([dirs.T, np.zeros((n, 1))]),
                      np.hstack([np.ones(k), [0.0]])])
    b_eq = np.append(np.zeros(n), 1.0)
    A_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    res = linprog(c, A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * (k + 1), method="highs")
    return bool(res.success and -res.fun > 1e-10)


def _unit_circle_measure(angles):
    nodes = np.column_stack([np.cos(angles), np.sin(angles)])
    grid = DirectionGrid(2, nodes, np.full(len(nodes), 2 * np.pi / len(nodes)))
    return SphericalMeasure(grid, np.ones(len(nodes)))


@pytest.mark.parametrize("angles,L_dim,pos_equals_L", [
    # as many atoms as the span's dimension: the certificate is 0 up to
    # rounding and must not pass
    ([0.0, 1.0], 2, False),
    # the closed half circle: the origin only combines its two end points
    (np.linspace(0.0, np.pi, 33), 2, False),
    ([0.3, 0.3 + np.pi], 1, True),
])
def test_positive_hull_certificate_edge_cases(angles, L_dim, pos_equals_L):
    mu = _unit_circle_measure(np.asarray(angles))
    report = positive_hull_check(mu)
    assert (report.L_dim, report.pos_equals_L) == (L_dim, pos_equals_L)
    assert report.pos_equals_L == _dense_positive_hull_lp(_distinct_atoms(mu)[0])


@pytest.mark.parametrize("n,N", [(2, 256), (3, 500)])
def test_positive_hull_of_default_grid_needs_no_lp(no_lp, n, N):
    mu = density_measure(lambda U: 1 + 0.3 * U[:, 0], build_grid(n, N))
    report = positive_hull_check(mu)
    assert report.passes and report.pos_equals_L and report.L_dim == n


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       parts=st.lists(st.sampled_from(["random", "circle", "antipodal", "axes",
                                       "octahedron", "cube"]),
                      min_size=1, max_size=3),
       fold=st.booleans())
def test_positive_hull_matches_dense_lp(n, seed, parts, fold):
    rng = np.random.default_rng(seed)
    dirs = _planted_atoms(rng, n, parts)
    if fold:  # into the half-space x_1 >= 0; antipodes become duplicates
        dirs = np.unique(dirs * np.where(dirs[:, :1] < 0, -1.0, 1.0), axis=0)
    grid = DirectionGrid(n, dirs, np.full(len(dirs), sphere_area(n) / len(dirs)))
    mu = SphericalMeasure(grid, rng.uniform(0.5, 1.5, len(dirs)))
    report = positive_hull_check(mu)
    assert report.pos_equals_L == _dense_positive_hull_lp(_distinct_atoms(mu)[0])


def test_distinct_atoms_matches_greedy_scan():
    rng = np.random.default_rng(7)
    base = np.array([_random_unit(rng, 3) for _ in range(40)])
    # chains of near-coincident nodes: 0.6e-10 steps, so a node can be
    # within 1e-10 of a merged node but not of its representative
    chain = [base[0] + s * 0.6e-10 * np.eye(3)[1] for s in range(1, 4)]
    near = [base[5] + 0.3e-10 * _random_unit(rng, 3) for _ in range(3)]
    nodes = np.vstack([base, chain, near])
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    nodes = nodes[rng.permutation(len(nodes))]
    grid = DirectionGrid(3, nodes, np.full(len(nodes), sphere_area(3) / len(nodes)))
    mu = SphericalMeasure(grid, rng.uniform(0.5, 1.5, len(nodes)))

    out_d, out_m = [], []
    sub, _ = mu.on_support()
    for u, w in zip(sub.grid.nodes, sub.masses):
        for j, v in enumerate(out_d):
            if np.linalg.norm(u - v) <= 1e-10:
                out_m[j] += w
                break
        else:
            out_d.append(u)
            out_m.append(w)
    dirs, masses = _distinct_atoms(mu)
    assert len(out_d) < len(nodes) - 3
    assert np.array_equal(dirs, np.array(out_d))
    assert np.array_equal(masses, np.array(out_m))


def test_on_support_restricts_to_the_positive_masses():
    g = build_grid(2, 360)
    mu = density_measure(lambda U: 1 + 0.5 * U[:, 0], g)
    assert mu.on_support()[0] is mu
    masses = np.where(np.abs(g.nodes[:, 1]) < 0.45, 1.0 + g.nodes[:, 0] ** 2, 0.0)
    mirror = np.diag([1.0, -1.0])
    mu = SphericalMeasure(g, masses, group=[np.eye(2), mirror])
    sub, support = mu.on_support()
    assert np.array_equal(support, np.flatnonzero(masses > 0))
    assert np.array_equal(sub.grid.nodes, g.nodes[support])
    assert np.array_equal(sub.masses, masses[support])
    assert sub.grid.weights.sum() == pytest.approx(sphere_area(2), rel=1e-12)
    assert sub.density_bounds is None and len(sub.group) == 2
    # the group acts on the sub-grid's own indices
    nodes = sub.grid.nodes
    assert np.allclose(nodes[sub.permutations[1]], nodes @ mirror.T, atol=1e-12)
    assert sub.to_dict() == mu.to_dict()


def test_smooth_with_the_cube_group_matches_the_grid_once(node_matches):
    group = cube_group()
    g = build_grid(3, 100, symmetry=group)
    rng = np.random.default_rng(5)
    dirs = rng.normal(size=(6, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mu = smooth_discrete(dirs, rng.uniform(0.5, 1.5, 6), g, group=group, m=8)
    # build_grid's closure check made the table that smooth_discrete and
    # the measure it returns read
    assert node_matches == [48]
    assert mu.permutations is g.node_permutations(np.array(group))


def test_measure_group_invariance_validation():
    g = build_grid(2, 360)
    masses = np.ones(len(g))
    masses[0] = 5.0
    with pytest.raises(MeasureError):
        SphericalMeasure(g, masses, group=[np.eye(2), -np.eye(2)])
    # a rotation by 1 degree without its powers is not a group
    c, s = np.cos(np.pi / 180), np.sin(np.pi / 180)
    with pytest.raises(MeasureError):
        SphericalMeasure(g, np.ones(len(g)),
                         group=[np.eye(2), np.array([[c, -s], [s, c]])])
    # a reflection listed twice
    flip = np.diag([1.0, -1.0])
    with pytest.raises(MeasureError, match="twice"):
        SphericalMeasure(g, np.ones(len(g)), group=[np.eye(2), flip, flip])


def test_reading_a_support_builds_no_grid(built_grids):
    g = build_grid(2, 360)
    masses = np.where(np.abs(g.nodes[:, 1]) < 0.45, 1.0 + g.nodes[:, 0] ** 2, 0.0)
    mu = SphericalMeasure(g, masses, group=[np.eye(2), np.diag([1.0, -1.0])])
    built_grids.clear()
    mu.to_dict()
    positive_hull_check(mu)
    subspace_concentration_check(mu)
    assert built_grids == []


def test_measure_density_bounds_validation():
    g = build_grid(2, 64)
    with pytest.raises(MeasureError):
        SphericalMeasure(g, 10.0 * g.weights, density_bounds=(0.5, 2.0))


def test_measure_json():
    mu = axis_measure_2d([1.0, 0.0, 2.0, 0.0])
    data = mu.to_dict()
    assert len(data["atoms"]) == 2
    assert data["dim"] == 2
