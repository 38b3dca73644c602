import itertools
import warnings

import numpy as np
import pytest
from hypothesis import settings

from lpmink.geometry import WulffError, wulff_shape

pytest_plugins = ["pytester"]

# Hypothesis imports libcst to report a falsifying example, and that first
# import warns (mypy_extensions' TypedDict is deprecated); under the suite's
# filterwarnings = error the warning ends the whole run in an INTERNALERROR.
# Importing it here once, with its warnings silenced, keeps a failing
# property test one failure among the rest
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:  # Hypothesis then reports without it
        pass

# print a @reproduce_failure line with every falsifying example, so a
# failure can be replayed from the test log without the example database
settings.register_profile("lpmink", print_blob=True)
settings.load_profile("lpmink")


def random_polygon(rng, k=12, spread=(0.6, 1.4), origin_interior=True):
    """Seeded random convex polygon as a Wulff shape with k proposed facets."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        if gaps.max() > np.pi - 0.2:
            continue
        normals = np.column_stack([np.cos(ang), np.sin(ang)])
        offsets = rng.uniform(spread[0], spread[1], k)
        try:
            body = wulff_shape(2, normals, offsets)
        except WulffError:
            continue
        if not origin_interior or body.support_values.min() > 0.05:
            return body


def random_polytope(rng, k=40, spread=(0.8, 1.3), origin_interior=True):
    """Seeded random 3-dimensional convex body from k random halfspaces."""
    while True:
        normals = rng.normal(size=(k, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        offsets = rng.uniform(spread[0], spread[1], k)
        try:
            body = wulff_shape(3, normals, offsets)
        except WulffError:
            continue
        if not origin_interior or body.support_values.min() > 0.05:
            return body


def dihedral_group(order=4):
    """The symmetry group of the square (order 2*order) as matrices."""
    mats = []
    for k in range(order):
        c, s = np.cos(2 * np.pi * k / order), np.sin(2 * np.pi * k / order)
        R = np.array([[c, -s], [s, c]])
        F = np.array([[1.0, 0.0], [0.0, -1.0]])
        mats.extend([R, R @ F])
    return mats


def cube_group():
    """The 48 symmetries of the cube: the signed permutation matrices."""
    return [np.diag(signs)[list(perm)]
            for perm in itertools.permutations(range(3))
            for signs in itertools.product((1.0, -1.0), repeat=3)]


@pytest.fixture
def no_lp(monkeypatch):
    """Make every LP raise: scipy's linprog, which lpmink imports where an
    LP runs, and energy's reference to the Chebyshev LP."""
    import scipy.optimize

    from lpmink import energy

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    monkeypatch.setattr(energy, "chebyshev_center", refuse)


@pytest.fixture
def built_grids(monkeypatch):
    """The node counts of every DirectionGrid built while the test runs."""
    from lpmink.sphere import DirectionGrid

    built = []
    init = DirectionGrid.__init__

    def counting_init(self, *args):
        built.append(len(args[1]))
        init(self, *args)

    monkeypatch.setattr(DirectionGrid, "__init__", counting_init)
    return built


@pytest.fixture
def node_matches(monkeypatch):
    """The group order of every node match made while the test runs.

    A match is a query of a grid's tree with the images of all its nodes
    under a (k, n, n) group; node_permutations is the one caller that
    queries with a (k, N, n) array. A match that fails counts too.
    """
    from lpmink import sphere

    matches = []

    class CountingTree(sphere.cKDTree):
        def query(self, x, *args, **kwargs):
            if np.ndim(x) == 3:
                matches.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(sphere, "cKDTree", CountingTree)
    return matches


@pytest.fixture(scope="session")
def grid2():
    from lpmink.sphere import build_grid
    return build_grid(2, 256)


@pytest.fixture(scope="session")
def grid3():
    from lpmink.sphere import build_grid
    return build_grid(3, 500)
