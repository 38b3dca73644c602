import time

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import cube_group, dihedral_group
from lpmink import sphere
from lpmink.measures import SphericalMeasure
from lpmink.sphere import (ORBIT_MERGE_TOL, DirectionGrid, GridError, build_grid,
                           sphere_area, unit_ball_volume)


def test_equal_angle_grid_four_nodes():
    g = build_grid(2, 4)
    assert len(g) == 4
    expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for v in expected:
        assert np.min(np.linalg.norm(g.nodes - np.array(v), axis=1)) < 1e-12
    assert np.allclose(g.weights, np.pi / 2)


def test_weight_sum_exact_n2():
    g = build_grid(2, 360)
    assert abs(g.weights.sum() - 2 * np.pi) < 1e-12


def test_weight_sum_exact_n3_and_dispersion():
    g = build_grid(3, 500)
    assert abs(g.weights.sum() - 4 * np.pi) < 1e-10
    d, _ = cKDTree(g.nodes).query(g.nodes, k=2)
    nn = 2 * np.arcsin(d[:, 1] / 2)
    # measured 1.14 for the offset Fibonacci lattice at N=500
    assert nn.max() / nn.min() <= 2.5


def test_nodes_unit_and_distinct(grid2, grid3):
    for g in (grid2, grid3):
        assert np.max(np.abs(np.linalg.norm(g.nodes, axis=1) - 1.0)) < 1e-12
        assert g.min_node_angle() > 0


@pytest.mark.parametrize("n,res,alpha_min", [(2, 256, 0.10), (3, 500, 0.55)])
def test_cap_mass_lower_bound(n, res, alpha_min):
    # discrete analogue of the cap-area bound; arbitrarily small caps cannot
    # be resolved on a fixed grid, so alpha ranges start at the frozen
    # pre-study values
    g = build_grid(n, res)
    kappa = unit_ball_volume(n - 1)
    rng = np.random.default_rng(11)
    for alpha in np.linspace(alpha_min, np.pi / 2, 8):
        for _ in range(50):
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            assert g.cap_mass(v, alpha) >= 0.9 * np.sin(alpha) ** (n - 1) * kappa


def test_symmetrized_grid_is_orbit_closed():
    group = dihedral_group()
    g = build_grid(2, 256, symmetry=group)
    tree = cKDTree(g.nodes)
    for A in group:
        d, _ = tree.query(g.nodes @ np.asarray(A).T)
        assert d.max() < 1e-10
    assert abs(g.weights.sum() - sphere_area(2)) < 1e-12
    mu = SphericalMeasure(g, g.weights, group=group)
    assert mu.permutations is not None and len(mu.permutations) == 8


def test_symmetrized_grid_n3_expands():
    Rz = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    group = [np.linalg.matrix_power(Rz, k) for k in range(4)]
    g = build_grid(3, 100, symmetry=group)
    assert len(g) >= 100
    tree = cKDTree(g.nodes)
    for A in group:
        d, _ = tree.query(g.nodes @ A.T)
        assert d.max() < 1e-10


def test_orbit_average_is_projection():
    rng = np.random.default_rng(3)
    for k in range(1, 7):
        # the cyclic group C_k is the rotation half of the dihedral D_k
        for group in (dihedral_group(k)[::2], dihedral_group(k)):
            g = build_grid(2, 64, symmetry=group)
            mu = SphericalMeasure(g, g.weights, group=group)
            v = rng.normal(size=len(g))
            av = mu.orbit_average(v)
            assert np.allclose(mu.orbit_average(av), av, atol=1e-12)
            for pi in mu.permutations:
                assert np.allclose(av[pi], av, atol=1e-12)


def test_each_group_gets_its_own_kept_table(node_matches):
    d4 = np.array(dihedral_group())
    c2 = d4[[0, 4]]  # the identity and the half turn
    g = build_grid(2, 256, symmetry=d4)
    assert node_matches == [8]
    tables = {}
    for name, group in (("D4", d4), ("C2", c2)):
        tables[name] = g.node_permutations(group)
        fresh = DirectionGrid(2, g.nodes, g.weights).node_permutations(group)
        assert np.array_equal(tables[name], fresh)
        # a copy with the same bytes reads the kept table
        assert g.node_permutations(group.copy()) is tables[name]
    assert tables["D4"].shape == (8, len(g)) and tables["C2"].shape == (2, len(g))
    # build_grid matched D4, the two fresh grids D4 and C2, and g itself C2
    assert node_matches == [8, 8, 2, 2]


def test_a_failed_match_is_not_kept(node_matches):
    # the 64-node circle is closed under the half turn, not under C7
    g = build_grid(2, 64)
    th = 2 * np.pi / 7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    c7 = np.array([np.linalg.matrix_power(rot, k) for k in range(7)])
    for _ in range(2):
        with pytest.raises(GridError, match="not closed under the group"):
            g.node_permutations(c7)
    assert node_matches == [7, 7]


def test_a_kept_table_is_read_only():
    g = build_grid(2, 64)
    table = g.node_permutations(np.array([np.eye(2), -np.eye(2)]))
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert np.array_equal(table[0], np.arange(len(g)))


def _two_pass_closure(nodes, mats):
    """The reference closure: add fresh images until a pass finds none, so
    an exact group takes a second pass that adds nothing."""
    kept = np.asarray(nodes, dtype=float)
    while True:
        images = np.vstack([kept @ A.T for A in mats])
        fresh = images[cKDTree(kept).query(images)[0] > ORBIT_MERGE_TOL]
        if not len(fresh):
            return kept
        pairs = cKDTree(fresh).query_pairs(ORBIT_MERGE_TOL, output_type="ndarray")
        keep = np.ones(len(fresh), dtype=bool)
        keep[pairs.max(axis=1)] = False
        kept = np.vstack([kept, fresh[keep]])


def _cube_rotations():
    return [A for A in cube_group() if np.linalg.det(A) > 0]


@pytest.mark.parametrize("n,resolution,group", [
    (2, 64, dihedral_group(4)),
    (2, 64, dihedral_group(3)[::2]),
    (2, 64, dihedral_group(5)[::2]),
    (2, 64, dihedral_group(6)[::2]),
    (3, 100, _cube_rotations()),
    (3, 500, cube_group()),
], ids=["D4", "C3", "C5", "C6", "cube24", "octahedral48"])
def test_one_pass_closure_matches_the_two_pass_loop(n, resolution, group):
    g = build_grid(n, resolution, symmetry=group)
    reference = _two_pass_closure(build_grid(n, resolution).nodes, np.array(group))
    assert g.nodes.tobytes() == reference.tobytes()


def test_a_symmetric_grid_queries_all_images_once(monkeypatch):
    # a query of k N points is a match of all the closed grid's images
    sizes = []

    class CountingTree(sphere.cKDTree):
        def query(self, x, *args, **kwargs):
            sizes.append(np.size(x) // np.shape(x)[-1])
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(sphere, "cKDTree", CountingTree)
    group = _cube_rotations()
    g = build_grid(3, 100, symmetry=group)
    assert len(g) > 100
    assert sizes.count(len(group) * len(g)) == 1


def _rotations(angle, k):
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    return [np.linalg.matrix_power(rot, j) for j in range(k)]


@pytest.mark.parametrize("group", [
    _rotations(np.pi / 2 + 2e-8, 4),
    # C8 typed to 7 digits: orthogonal, and closed, only within GROUP_TOL
    [np.round(A, 7) for A in _rotations(np.pi / 4, 8)],
], ids=["C4-off-by-2e-8", "C8-to-7-digits"])
def test_a_group_closed_only_within_group_tol_fails_at_once(group):
    sphere.validate_group(group, 2)
    start = time.perf_counter()
    with pytest.raises(GridError, match="symmetry group does not close the grid"):
        build_grid(2, 64, symmetry=group)
    assert time.perf_counter() - start < 1.0


def test_build_grid_errors():
    with pytest.raises(GridError):
        build_grid(4, 100)
    with pytest.raises(GridError):
        build_grid(2, 3)
    with pytest.raises(GridError):
        build_grid(2, 100, symmetry=[])
    with pytest.raises(GridError):
        build_grid(2, 100, symmetry=[np.array([[1.0, 0.5], [0.0, 1.0]])])
    # pair of rotations not closed under composition
    c, s = np.cos(0.7), np.sin(0.7)
    with pytest.raises(GridError):
        build_grid(2, 100, symmetry=[np.eye(2), np.array([[c, -s], [s, c]])])
    # a reflection listed twice: closed and with the identity, but no group
    # of three elements, and its orbit average would not be a projection
    flip = np.diag([1.0, -1.0])
    with pytest.raises(GridError, match="twice"):
        build_grid(2, 100, symmetry=[np.eye(2), flip, flip])
    with pytest.raises(GridError, match="twice"):
        build_grid(2, 100, symmetry=[np.eye(2), flip, flip + 1e-9])


def test_grid_constructor_validation():
    with pytest.raises(GridError):
        DirectionGrid(2, np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([np.pi, np.pi]))
    with pytest.raises(GridError):
        DirectionGrid(2, np.array([[1.0, 0.0], [0.0, 1.0]]),
                      np.array([np.pi, -np.pi]))
    with pytest.raises(GridError):
        DirectionGrid(2, np.array([[1.0, 0.0], [1.0, 0.0]]),
                      np.array([np.pi, np.pi]))
